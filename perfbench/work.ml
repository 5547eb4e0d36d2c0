(* What one benchmark item produces, and the layer probes the traced
   run makes on every item: a replay of candidate schedules through the
   engine's stage functions, and the TIR-level calls on a produced
   program.  Each probe is a public call wrapped in a benchmark span
   named after the function, so a per-layer metric is the mean (or
   p99) duration of the spans carrying that name. *)

module I = Imtp

type outcome = {
  item_s : float;  (** wall time of the whole item, checks included. *)
  compile_s : float;  (** the public call(s) producing the program. *)
  exec_s : float;  (** executing the produced program(s) + comparing. *)
  failure : string option;  (** [None] when every output matched. *)
  digest : string;  (** determinism witness of the produced result. *)
  modeled : I.Stats.t;  (** simulated latency breakdown. *)
}

let failed ~item_s ~compile_s msg =
  {
    item_s;
    compile_s;
    exec_s = 0.;
    failure = Some msg;
    digest = "failed";
    modeled = I.Stats.zero;
  }

(* Bit-exact rendering of a modeled breakdown, for digests. *)
let stats_key (s : I.Stats.t) =
  Printf.sprintf "%h/%h/%h/%h/%h/%d/%d/%d/%d" s.I.Stats.h2d_s s.kernel_s
    s.d2h_s s.host_s s.launch_s s.bytes_h2d s.bytes_d2h s.dpus_used
    s.tasklets_used

let params_key (p : I.Sketch.params) =
  Printf.sprintf "%d/%d/%d/%d/%d/%b/%d" p.I.Sketch.spatial_dpus
    p.reduction_dpus p.tasklets p.cache_elems p.rows_per_tasklet
    p.unroll_inner p.host_threads

let digest parts = Digest.to_hex (Digest.string (String.concat "\n" parts))

(* Element-wise equality in row-major order: a program's host output
   buffer may carry a flattened shape of the operator's output. *)
let same_values a b =
  let n = I.Tensor.size a in
  let same i =
    I.Value.compare (I.Tensor.get_flat a i) (I.Tensor.get_flat b i) = 0
  in
  let rec go i = i = n || (same i && go (i + 1)) in
  n = I.Tensor.size b && go 0

(* First mismatch between the outputs a program produced and the
   reference tensors computed in set-up. *)
let compare_outputs outs refs =
  List.find_map
    (fun (name, want) ->
      match List.assoc_opt name outs with
      | None -> Some (Printf.sprintf "output %s missing" name)
      | Some got when same_values got want -> None
      | Some _ ->
          Some (Printf.sprintf "output %s differs from the reference" name))
    refs

(* Replay candidate parameters through every stage function the engine
   composes, then through [Engine.prepare] on a cold engine.  A rejected
   candidate stops at the stage that rejects it, as in the engine. *)
let replay_stages tr cfg op params =
  let span name f = Meter.span tr name f in
  let model = I.Cost_learn.create () in
  let engine = I.Engine.create cfg in
  let accepted = function Ok () -> () | Error _ -> raise Exit in
  List.iter
    (fun p ->
      ignore (span "Engine.prepare" (fun () -> I.Engine.prepare engine op p));
      try
        let sched =
          span "Sketch.instantiate" (fun () -> I.Sketch.instantiate op p)
        in
        accepted
          (span "Verifier.check_sched" (fun () ->
               I.Verifier.check_sched cfg sched));
        let lowered =
          span "Lowering.lower" (fun () ->
              I.Lowering.lower ~options:(I.Sketch.lower_options p) sched)
        in
        let prog = span "Pipeline.run" (fun () -> I.Passes.run cfg lowered) in
        accepted (span "Verifier.check" (fun () -> I.Verifier.check cfg prog));
        let x =
          span "Cost_learn.rank" (fun () ->
              let x = I.Cost_learn.features prog in
              ignore (I.Cost_learn.predict model x);
              x)
        in
        let stats = span "Cost.measure" (fun () -> I.Cost.measure cfg prog) in
        I.Cost_learn.observe model x (I.Stats.total_s stats)
      with Exit | Invalid_argument _ | I.Lowering.Lower_error _ | I.Cost.Error _
      ->
        ())
    params

(* Seeded random candidates for workloads whose own search history is
   not exposed (graph nodes, fuzz operators). *)
let random_params ~seed cfg op n =
  let rng = I.Rng.create ~seed in
  List.init n (fun _ -> I.Sketch.random rng cfg op)

(* The TIR-layer calls on one produced program, and its static pass
   metrics.  [reference] recomputes the golden output the set-up
   already holds, only to time it. *)
let probe_program tr tl cfg prog ~inputs ~reference =
  let span name f = Meter.span tr name f in
  let compiled = span "Exec.compile" (fun () -> I.Exec.compile prog) in
  ignore
    (span "Exec.run_compiled" (fun () -> I.Exec.run_compiled compiled ~inputs));
  ignore (span "Eval.run_counted" (fun () -> I.Eval.run_counted prog ~inputs));
  ignore (span "Cost.dma_counts" (fun () -> I.Cost.dma_counts prog));
  ignore (span "Cost.measure" (fun () -> I.Cost.measure cfg prog));
  reference ();
  let c =
    span "Codegen_c.program_to_c" (fun () -> I.Codegen_c.program_to_c prog)
  in
  Meter.add tl "tir.c_bytes" (float (String.length c));
  List.iter
    (fun k ->
      let m = I.Pass_metrics.of_kernel k in
      Meter.add tl "passes.static_branches"
        (float m.I.Pass_metrics.static_branches);
      Meter.add tl "passes.static_dmas" (float m.static_dmas);
      Meter.add tl "passes.dynamic_dmas" m.dynamic_dmas)
    prog.I.Program.kernels

(* Engine ledger of one item, as per-item sums: the counters of the
   engine the item ran on, less a [before] snapshot when that engine is
   shared. *)
let tally_engine tl ?before (c : I.Engine.counters) =
  let fields (c : I.Engine.counters) =
    [
      ("engine.built", c.I.Engine.built);
      ("engine.hits", c.hits);
      ("engine.lookups", c.lookups);
      ("engine.costed", c.costed);
      ("engine.failed", c.failed);
    ]
  in
  let base = match before with Some b -> fields b | None -> [] in
  List.iter
    (fun (k, v) ->
      let v0 = Option.value ~default:0 (List.assoc_opt k base) in
      Meter.add tl k (float (v - v0)))
    (fields c)
