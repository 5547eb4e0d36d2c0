(* graph-nets: whole-model compilation.  Per item, [Graph.of_spec] ->
   [Compiled.compile] -> [Compiled.run], every materialized output
   compared against the set-up's [Nets.reference].  Residency planning
   dominates compile time and tuning barely shows, so this workload
   isolates lib/graph and is the control for tune-suite. *)

module I = Imtp
module C = I.Graph.Compiled

let cfg = I.default_config

(* Random candidates per distinct node operator for the stage replay. *)
let replay_per_op = 16

type item = {
  label : string;
  spec : I.Nets.t;
  seed : int;  (** of the searches. *)
  inputs : (string * I.Tensor.t) list;
  refs : (string * I.Tensor.t) list;  (** node id -> golden output. *)
}

(* The last MLP layer's width comes from the seed (odd, so it stays
   ragged against the tilings), so modeled latencies differ from seed to
   seed; its execution time barely moves with it.  The search seed is
   fixed per net, as in tune-suite; the run's seed draws the input
   tensors. *)
let nets ~seed =
  let rng = Random.State.make [| seed |] in
  let d_out = 57 + (2 * Random.State.int rng 8) in
  [
    ("mlp-256-256-128", I.Nets.mlp ~d_in:256 ~d_hidden:256 ~d_out:128 ());
    ("mlp-512-512-256", I.Nets.mlp ~d_in:512 ~d_hidden:512 ~d_out:256 ());
    ( Printf.sprintf "mlp-1024-256-%d" d_out,
      I.Nets.mlp ~d_in:1024 ~d_hidden:256 ~d_out () );
    ("attention-16-64-32", I.Nets.attention ~heads:16 ~tokens:64 ~dim:32 ());
    ("attention-32-64-32", I.Nets.attention ~heads:32 ~tokens:64 ~dim:32 ());
    ("attention-8-128-64", I.Nets.attention ~heads:8 ~tokens:128 ~dim:64 ());
  ]

let setup ~seed =
  Array.of_list
    (List.mapi
       (fun i (label, spec) ->
         let inputs = I.Nets.random_inputs ~seed:((seed * 64) + i) spec in
         let refs = I.Nets.reference spec ~inputs in
         { label; spec; seed = i; inputs; refs })
       (nets ~seed))

let label it = it.label

(* The compiled graph, and each spec node's graph-tensor name. *)
let compile ?resident it ~engine =
  let g, ids = I.Graph.of_spec it.spec in
  ( C.compile ~seed:it.seed ~jobs:1 ~islands:1 ?resident ~engine cfg g,
    List.map (fun (id, tid) -> (id, I.Graph.tid_name tid)) ids )

(* Materialized outputs only: fused-away and MRAM-resident
   intermediates have no host value to compare. *)
let check outs ~names refs =
  let materialized =
    List.filter_map
      (fun (id, want) ->
        let name = List.assoc id names in
        if List.mem_assoc name outs then Some (name, want) else None)
      refs
  in
  if materialized = [] then Some "no materialized output to compare"
  else Work.compare_outputs outs materialized

let probe tr tl it c ~engine ~compile_s =
  Work.tally_engine tl (I.Engine.counters engine);
  Meter.add tl "graph.fused" (float (C.fused_count c));
  Meter.add tl "graph.resident_edges" (float (C.resident_count c));
  let _, noresident_s =
    Meter.timed (fun () ->
        Meter.span tr "Compiled.compile(resident=false)" (fun () ->
            compile ~resident:false it ~engine:(I.Engine.create cfg)))
  in
  Meter.add tl "graph.residency_s" (compile_s -. noresident_s);
  let ops =
    List.fold_left
      (fun acc (n : I.Nets.node) ->
        let key = I.Engine.op_key n.I.Nets.op in
        if List.mem_assoc key acc then acc else (key, n.I.Nets.op) :: acc)
      [] it.spec.I.Nets.nodes
  in
  List.iteri
    (fun i (_, op) ->
      Work.replay_stages tr cfg op
        (Work.random_params ~seed:((it.seed * 16) + i) cfg op replay_per_op))
    (List.rev ops);
  Work.probe_program tr tl cfg (C.program c) ~inputs:it.inputs
    ~reference:(fun () ->
      ignore
        (Meter.span tr "Nets.reference" (fun () ->
             I.Nets.reference it.spec ~inputs:it.inputs)))

let run tr tl it =
  let t0 = Meter.now () in
  let engine = I.Engine.create cfg in
  let (compiled, names), compile_s =
    Meter.timed (fun () ->
        Meter.span tr "Compiled.compile" (fun () -> compile it ~engine))
  in
  match compiled with
  | Error m ->
      Work.failed ~item_s:(Meter.now () -. t0) ~compile_s ("compile: " ^ m)
  | Ok c ->
      let failure, exec_s =
        Meter.timed (fun () ->
            let outs =
              Meter.span tr "Compiled.run" (fun () -> C.run c ~inputs:it.inputs)
            in
            check outs ~names it.refs)
      in
      let item_s = Meter.now () -. t0 in
      let modeled = C.estimate c in
      if tr.Meter.enabled then probe tr tl it c ~engine ~compile_s;
      {
        Work.item_s;
        compile_s;
        exec_s;
        failure;
        digest = Work.digest (Work.stats_key modeled :: C.describe c);
        modeled;
      }
