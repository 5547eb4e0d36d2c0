(* tune-suite: one cold-engine [Tuner.tune] per operator at a fixed
   budget with the default measurement gate, then the winner executed
   and compared against the set-up reference.  This is what a user of
   `imtp tune` waits for; candidate preparation dominates it. *)

module I = Imtp

let cfg = I.default_config
let trials = 2048
let measure_ratio = 0.2

(* Replaying every distinct candidate of a 2048-trial history would
   make the traced run several times longer than the untraced one; the
   first [replay_limit] distinct candidates give each item's stage
   timings. *)
let replay_limit = 256

type item = {
  label : string;
  op : I.Op.t;
  seed : int;  (** of the search. *)
  inputs : (string * I.Tensor.t) list;
  want : I.Tensor.t;
}

(* The ragged mmtv takes its extents from the seed (odd, so they stay
   non-divisible by the tilings) so that modeled latency differs from
   seed to seed.  It is the cheapest item to execute and among the
   dearest to tune, so its seed-to-seed changes stay clear of the
   compile and execution medians. *)
let ops ~seed =
  let rng = Random.State.make [| seed |] in
  let odd () = 53 + (2 * Random.State.int rng 5) in
  let n = odd () in
  let k = odd () in
  [
    ("gemv-512x512", I.Ops.gemv ~c:3 512 512);
    ("gemv-500x500", I.Ops.gemv ~c:3 500 500);
    ("mmtv-8x64x64", I.Ops.mmtv 8 64 64);
    (Printf.sprintf "mmtv-8x%dx%d" n k, I.Ops.mmtv 8 n k);
    ("gemm-64x64x64", I.Ops.gemm 64 64 64);
    ("mtv-1024x1024", I.Ops.mtv 1024 1024);
    ("ttv-16x64x64", I.Ops.ttv 16 64 64);
    ("va-262144", I.Ops.va 262144);
    ("red-262144", I.Ops.red 262144);
    ("geva-262144", I.Ops.geva ~c:2 ~d:3 262144);
  ]

let setup ~seed =
  Array.of_list
    (List.mapi
       (fun i (label, op) ->
         let inputs = I.Ops.random_inputs ~seed:((seed * 64) + i) op in
         { label; op; seed = i; inputs; want = I.Op.reference op inputs })
       (ops ~seed))

let label it = it.label

(* 1-based trial at which the run first reached its final best. *)
let trials_to_best (h : I.Search.record list) =
  let best =
    List.fold_left (fun b r -> Float.min b r.I.Search.best_so_far) infinity h
  in
  match List.find_index (fun r -> r.I.Search.best_so_far = best) h with
  | Some i -> i + 1
  | None -> List.length h

let probe tr tl it (r : I.Tuner.result) ~compile_s =
  let o = r.I.Tuner.search and c = r.I.Tuner.cache in
  Work.tally_engine tl c;
  let ledger =
    c.I.Engine.sketch_s +. c.lower_s +. c.passes_s +. c.verify_s +. c.cost_s
  in
  List.iter
    (fun (k, v) -> Meter.add tl k v)
    [
      ("autotune.search_self_s", compile_s -. ledger);
      ("autotune.trials", float (List.length o.I.Search.history));
      ("autotune.measured", float o.I.Search.measured_trials);
      ("autotune.invalid", float o.I.Search.invalid_candidates);
      ("autotune.trials_to_best", float (trials_to_best o.I.Search.history));
    ];
  let seen = Hashtbl.create 256 in
  let distinct =
    List.filter_map
      (fun (rc : I.Search.record) ->
        let p = rc.I.Search.params in
        if Hashtbl.mem seen p then None
        else (
          Hashtbl.add seen p ();
          Some p))
      o.I.Search.history
  in
  Work.replay_stages tr cfg it.op
    (List.filteri (fun i _ -> i < replay_limit) distinct);
  Work.probe_program tr tl cfg r.I.Tuner.program ~inputs:it.inputs
    ~reference:(fun () ->
      ignore
        (Meter.span tr "Op.reference" (fun () ->
             I.Op.reference it.op it.inputs)))

let run tr tl it =
  let t0 = Meter.now () in
  let engine = I.Engine.create cfg in
  let tuned, compile_s =
    Meter.timed (fun () ->
        Meter.span tr "Tuner.tune" (fun () ->
            I.Tuner.tune ~seed:it.seed ~jobs:1 ~islands:1 ~trials ~measure_ratio
              ~engine cfg it.op))
  in
  match tuned with
  | Error m ->
      Work.failed ~item_s:(Meter.now () -. t0) ~compile_s ("tune: " ^ m)
  | Ok r ->
      let failure, exec_s =
        Meter.timed (fun () ->
            let outs, _ =
              Meter.span tr "Engine.execute" (fun () ->
                  I.Engine.execute r.I.Tuner.program ~inputs:it.inputs)
            in
            Work.compare_outputs outs [ (fst it.op.I.Op.output, it.want) ])
      in
      let item_s = Meter.now () -. t0 in
      if tr.Meter.enabled then probe tr tl it r ~compile_s;
      {
        Work.item_s;
        compile_s;
        exec_s;
        failure;
        digest =
          Work.digest
            [
              Work.params_key r.I.Tuner.params;
              Work.stats_key r.I.Tuner.stats;
              I.Protocol.history_digest r.I.Tuner.search;
            ];
        modeled = r.I.Tuner.stats;
      }
