(* fuzz-diff: one fixed-campaign differential case per item.  The case's
   schedule is lowered and run through every pass configuration the
   oracle checks; each program is executed and compared against the
   set-up reference, then [Oracle.check] delivers the verdict (both
   executors, the reference and [Cost.dma_counts]).  Random non-sketch
   schedules, the affine stack and every ablation config use lowering
   and the passes differently from the tuner, and the executors carry
   the time: this is the control for candidate-preparation work. *)

module I = Imtp
module O = I.Fuzz_oracle

let cfg = I.Config.default

(* The case structures (workload kind, schedule steps, lowering options,
   extra pass config) come from one fixed campaign, kept to a fixed
   quota per cost stratum, so every seed runs the same mix of cases.
   Per-case cost spans four orders of magnitude: cases drawn afresh per
   seed, even stratified, moved throughput, medians and peak memory by
   10-30% from seed to seed.  The stratum is the octave of an analytic
   cost proxy of the raw lowering (estimated DMA operations plus the
   operator's multiply-adds), which tracks a case's check time closely.
   Octaves up to [first_octave] share one stratum, which makes seven,
   so the median item sits inside the middle stratum rather than on a
   boundary between two; the rare cases above [last_octave] (single
   cases of one to several seconds) are skipped so that no one case
   dominates a run.  The seed draws the input tensors, and moves each
   extent of the cheapest stratum's cases by at most one (a moved case
   is kept only if its schedule still lowers): modeled latencies then
   differ from seed to seed while the cases that set the host-time
   medians and the throughput stay as the campaign drew them. *)
let campaign = 7
let first_octave = 9
let last_octave = 15
let per_stratum = 12
let max_draws = 20_000

(* Random sketch candidates per case operator for the stage replay. *)
let replay_per_case = 4

type item = {
  index : int;  (** the case's index in the campaign. *)
  case : O.case;
  op : I.Op.t;
  inputs : (string * I.Tensor.t) list;
  want : I.Tensor.t;
  rejected : int;  (** draws the case generator discarded first. *)
}

let stratum case =
  match O.lower case with
  | Error _ -> None
  | Ok raw ->
      let op = I.Gen_workload.op case.O.workload in
      let proxy =
        float (I.Cost.dma_estimate raw).I.Cost.dma_ops +. I.Op.total_flops op
      in
      let octave = if proxy < 1. then 0 else truncate (Float.log2 proxy) in
      if octave > last_octave then None else Some (max first_octave octave)

(* The campaign's first cases that fill every stratum's quota, as
   [(stratum, index, case, rejected)] in draw order. *)
let stratified () =
  let quota = Array.make (last_octave - first_octave + 1) 0 in
  let wanted = Array.length quota * per_stratum in
  let lookups () = (I.Engine.counters O.engine).I.Engine.lookups in
  let rec draw index acc n =
    if n = wanted then List.rev acc
    else if index >= max_draws then failwith "fuzz-diff: strata not filled"
    else
      let l0 = lookups () in
      match I.Fuzz.case_of_seed ~seed:campaign ~index with
      | None -> draw (index + 1) acc n
      | Some case -> (
          let rejected = lookups () - l0 - 1 in
          match stratum case with
          | Some s when quota.(s - first_octave) < per_stratum ->
              quota.(s - first_octave) <- quota.(s - first_octave) + 1;
              draw (index + 1) ((s, index, case, rejected) :: acc) (n + 1)
          | Some _ | None -> draw (index + 1) acc n)
  in
  draw 0 [] 0

(* Round-robin over the strata, cheapest first: any prefix of a pass
   (the traced run's, the set-up's warm-up item) covers the strata
   evenly. *)
let interleave drawn =
  let strata =
    List.sort_uniq compare (List.map (fun (s, _, _, _) -> s) drawn)
  in
  let columns =
    List.map (fun s -> List.filter (fun (s', _, _, _) -> s = s') drawn) strata
  in
  List.concat
    (List.init per_stratum (fun i -> List.map (fun c -> List.nth c i) columns))

let perturb ~seed stratum index case =
  let rng = Random.State.make [| seed; index |] in
  let input_seed = Random.State.bits rng in
  let dims =
    List.map
      (fun d -> max 1 (d - 1 + Random.State.int rng 3))
      (I.Gen_workload.dims case.O.workload)
  in
  let workload = I.Gen_workload.with_dims case.O.workload dims in
  let moved = { case with O.workload; input_seed } in
  if stratum > first_octave then { case with O.input_seed }
  else
    match O.lower moved with
    | Ok _ -> moved
    | Error _ -> { case with O.input_seed }

let setup ~seed =
  Array.of_list
    (List.map
       (fun (stratum, index, case, rejected) ->
         let case = perturb ~seed stratum index case in
         let op = I.Gen_workload.op case.O.workload in
         let inputs = I.Ops.random_inputs ~seed:case.O.input_seed op in
         let want = I.Op.reference op inputs in
         { index; case; op; inputs; want; rejected })
       (interleave (stratified ())))

let label it =
  Printf.sprintf "case-%d:%s" it.index
    (I.Gen_workload.describe it.case.O.workload)

(* The program whose modeled stats the workload reports: the full
   pass stack, i.e. the last of the oracle's ablations. *)
let reported programs =
  snd (List.nth programs (List.length I.Passes.ablations - 1))

let probe tr tl it prog ~before =
  Work.tally_engine tl ~before (I.Engine.counters O.engine);
  Meter.add tl "fuzz.rejected" (float it.rejected);
  Work.replay_stages tr cfg it.op
    (Work.random_params ~seed:it.case.O.input_seed cfg it.op replay_per_case);
  Work.probe_program tr tl cfg prog ~inputs:it.inputs ~reference:(fun () ->
      ignore
        (Meter.span tr "Op.reference" (fun () ->
             I.Op.reference it.op it.inputs)))

let run tr tl it =
  let span name f = Meter.span tr name f in
  let t0 = Meter.now () in
  let before = I.Engine.counters O.engine in
  let programs, compile_s =
    Meter.timed (fun () ->
        let sched, _ = I.Gen_sched.replay it.op it.case.O.steps in
        let raw =
          span "Lowering.lower" (fun () ->
              I.Lowering.lower ~options:it.case.O.options sched)
        in
        List.map
          (fun (name, config) ->
            ( name,
              span "Pipeline.run" (fun () -> I.Passes.run ~config cfg raw) ))
          (O.configs it.case))
  in
  let output = fst it.op.I.Op.output in
  let failure, exec_s =
    Meter.timed (fun () ->
        List.find_map
          (fun (name, prog) ->
            match
              span "Engine.execute" (fun () ->
                  I.Engine.execute prog ~inputs:it.inputs)
            with
            | outs, _ ->
                Option.map
                  (fun m -> name ^ ": " ^ m)
                  (Work.compare_outputs outs [ (output, it.want) ])
            | exception I.Eval.Error m -> Some (name ^ ": " ^ m))
          programs)
  in
  let verdict = span "Oracle.check" (fun () -> O.check it.case) in
  let modeled = I.Cost.measure cfg (reported programs) in
  let item_s = Meter.now () -. t0 in
  let failure, verdict_key =
    match (failure, verdict) with
    | None, O.Passed { configs_checked } ->
        Meter.add tl "fuzz.configs_checked" (float configs_checked);
        (None, Printf.sprintf "passed %d" configs_checked)
    | Some m, _ -> (Some m, "failed")
    | None, O.Rejected m ->
        (Some ("oracle rejected the case: " ^ m), "rejected")
    | None, O.Failed f -> (Some (O.failure_to_string f), "failed")
  in
  if tr.Meter.enabled then probe tr tl it (reported programs) ~before;
  {
    Work.item_s;
    compile_s;
    exec_s;
    failure;
    digest = Work.digest [ verdict_key; Work.stats_key modeled ];
    modeled;
  }
