(* The repository benchmark: one workload per run, inputs generated
   from --seed, every produced output checked against a reference
   computed in set-up, end-to-end metrics from an untraced run
   (--trace 0) or per-layer metrics from a traced one (--trace 1).

     bench.exe --workload tune-suite|graph-nets|fuzz-diff --seed N
               --seconds S --trace 0|1

   The last line of standard output is one JSON object
   {correct, attempted, failed, metrics}; the full record (provenance,
   per-item digests, every metric) goes to .perfbench/.  Every search
   is pinned to one worker domain and one island, so results do not
   depend on the host's core count.  See NOTES.md. *)

module I = Imtp
module Json = I.Obs.Json

module type WORKLOAD = sig
  type item

  val setup : seed:int -> item array
  (** Inputs and reference outputs generated from the seed. *)

  val run : Meter.tracer -> Meter.tally -> item -> Work.outcome
  (** One item; with an enabled tracer, also its layer probes. *)

  val label : item -> string
end

let workloads : (string * (module WORKLOAD)) list =
  [
    ("tune-suite", (module Tune_suite));
    ("graph-nets", (module Graph_nets));
    ("fuzz-diff", (module Fuzz_diff));
  ]

(* Set-up (inputs, references, one warm-up item) is repeated and its
   median reported, so set-up time is steady enough to compare. *)
let setup_repeats = 3

let out_dir = ".perfbench"

let usage () =
  prerr_endline
    "usage: bench.exe --workload tune-suite|graph-nets|fuzz-diff --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let rec pairs acc = function
    | [] -> acc
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
        pairs ((k, v) :: acc) rest
    | _ -> usage ()
  in
  let kv = pairs [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k =
    match int_of_string_opt (get k) with Some n -> n | None -> usage ()
  in
  let workload = get "--workload" in
  let trace = int "--trace" in
  if (not (List.mem_assoc workload workloads)) || (trace <> 0 && trace <> 1)
  then usage ();
  (workload, int "--seed", float (max 1 (int "--seconds")), trace = 1)

(* Knobs that change what the measured code does.  The emulated device
   stall sleeps inside every simulator call, so no number measured
   under it means anything. *)
let env_knobs = [ "IMTP_EXEC"; "IMTP_JOBS"; "IMTP_ISLANDS" ]

let guard_env () =
  match Sys.getenv_opt "IMTP_SIM_LATENCY_US" with
  | Some v ->
      Printf.eprintf
        "perfbench: IMTP_SIM_LATENCY_US=%s injects sleeps into every \
         measurement; unset it to benchmark.\n"
        v;
      exit 2
  | None -> ()

let provenance ~workload ~seed ~seconds ~trace =
  let env k =
    (k, match Sys.getenv_opt k with Some v -> Json.Str v | None -> Json.Null)
  in
  Json.Obj
    [
      ("workload", Json.Str workload);
      ("seed", Json.Num (float seed));
      ("seconds", Json.Num seconds);
      ("trace", Json.Bool trace);
      ("host_cores", Json.Num (float (Domain.recommended_domain_count ())));
      ("jobs", Json.Num 1.);
      ("islands", Json.Num 1.);
      ("executor", Json.Str (I.Exec.backend_name ()));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("env", Json.Obj (List.map env env_knobs));
    ]

type record = { index : int; outcome : Work.outcome }

(* Run items in order, round-robin, until [seconds] have passed.  The
   untraced run stops only between whole passes (at least one), so
   every run weighs each item equally; the traced run may stop
   mid-pass.  An item that raises counts as failed; a repeated item
   must reproduce its first digest.  The host-speed probe runs between
   items. *)
let measure run items tr tl ~seconds ~whole_passes ~host =
  let n = Array.length items in
  let deadline = Meter.now () +. seconds in
  let first = Hashtbl.create n in
  let rec loop i acc =
    let index = i mod n in
    if
      i > 0
      && ((not whole_passes) || index = 0)
      && Meter.now () >= deadline
    then List.rev acc
    else begin
      Meter.maybe_probe host;
      let t0 = Meter.now () in
      let o =
        match run tr tl items.(index) with
        | o -> o
        | exception e ->
            let item_s = Meter.now () -. t0 in
            Work.failed ~item_s ~compile_s:item_s
              ("raised " ^ Printexc.to_string e)
      in
      let o =
        match (Hashtbl.find_opt first index, o.Work.failure) with
        | Some d, None when d <> o.Work.digest ->
            let failure = Some "digest differs from the item's first run" in
            { o with Work.failure }
        | Some _, _ -> o
        | None, _ ->
            Hashtbl.replace first index o.Work.digest;
            o
      in
      loop (i + 1) ({ index; outcome = o } :: acc)
    end
  in
  loop 0 []

(* Outcomes grouped by distinct item, in index order. *)
let by_item records =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let os = Option.value ~default:[] (Hashtbl.find_opt tbl r.index) in
      Hashtbl.replace tbl r.index (r.outcome :: os))
    records;
  Hashtbl.fold (fun i os acc -> (i, List.rev os) :: acc) tbl []
  |> List.sort compare

(* Timings are robust to host noise and weigh every distinct item once:
   each item contributes the median of its repeats.  [p50] is the median
   over items of those medians; [items_per_s] is one pass over the
   distinct items at those medians. *)
let item_medians f records =
  List.map (fun (_, os) -> Meter.median (List.map f os)) (by_item records)

let p50 f records = Meter.median (item_medians f records)

let items_per_s records =
  let ts = item_medians (fun o -> o.Work.item_s) records in
  float (List.length ts) /. List.fold_left ( +. ) 0. ts

(* Modeled stats of each distinct item's first run: identical for every
   run with the same seed. *)
let modeled records =
  List.map (fun (_, os) -> (List.hd os).Work.modeled) (by_item records)

let failed records =
  List.filter (fun r -> r.outcome.Work.failure <> None) records

(* Host times are reported at the reference host's speed (see
   [Meter.host_factor]); [factor] 1 gives them as measured. *)
let end_to_end ~factor ~setup_s records =
  let modeled = modeled records in
  let xfer (s : I.Stats.t) = s.I.Stats.bytes_h2d + s.I.Stats.bytes_d2h in
  let failed = List.length (failed records) in
  [
    ("setup_s", "s", Meter.median setup_s /. factor);
    ("items_per_s", "1/s", items_per_s records *. factor);
    ("item_p50_s", "s", p50 (fun o -> o.Work.item_s) records /. factor);
    ("compile_p50_s", "s", p50 (fun o -> o.Work.compile_s) records /. factor);
    ("exec_p50_s", "s", p50 (fun o -> o.Work.exec_s) records /. factor);
    ( "modeled_ms_geomean",
      "ms",
      Meter.geomean (List.map (fun s -> 1e3 *. I.Stats.total_s s) modeled) );
    ( "modeled_xfer_bytes",
      "B",
      float (List.fold_left (fun b s -> b + xfer s) 0 modeled) );
    ("peak_rss_mb", "MB", Meter.peak_rss_mb ());
    ( "pass_frac",
      "frac",
      1. -. (float failed /. float (List.length records)) );
  ]

let per_layer ~untraced ~traced tr tl =
  let items = float (List.length traced) in
  let per_item k = Meter.get tl k /. items in
  let ratio a b =
    if Meter.get tl b = 0. then 0. else Meter.get tl a /. Meter.get tl b
  in
  let mean scale names = scale *. Meter.mean (Meter.durations tr names) in
  let p99 scale names =
    match Meter.durations tr names with
    | [] -> 0.
    | ds -> scale *. Meter.quantile ds 0.99
  in
  let modeled = modeled untraced in
  let modeled_mean f = Meter.mean (List.map f modeled) in
  let ms f = modeled_mean (fun s -> 1e3 *. f s) in
  (* Tracing overhead compares the distinct items the traced run reached
     (it may stop mid-pass) with the same items untraced. *)
  let reached = List.map fst (by_item traced) in
  let ips_traced = items_per_s traced in
  let ips_untraced =
    items_per_s (List.filter (fun r -> List.mem r.index reached) untraced)
  in
  [
    ("engine.sketch_us", "us", mean 1e6 [ "Sketch.instantiate" ]);
    ( "engine.verify_us",
      "us",
      mean 1e6 [ "Verifier.check_sched"; "Verifier.check" ] );
    ("engine.prepare_us", "us", mean 1e6 [ "Engine.prepare" ]);
    ("engine.prepare_p99_us", "us", p99 1e6 [ "Engine.prepare" ]);
    ("engine.built", "count", per_item "engine.built");
    ("engine.hits", "count", per_item "engine.hits");
    ("engine.costed", "count", per_item "engine.costed");
    ("engine.failed", "count", per_item "engine.failed");
    ("engine.hit_rate", "frac", ratio "engine.hits" "engine.lookups");
    ("lower.lower_us", "us", mean 1e6 [ "Lowering.lower" ]);
    ("lower.lower_p99_us", "us", p99 1e6 [ "Lowering.lower" ]);
    ("passes.run_us", "us", mean 1e6 [ "Pipeline.run" ]);
    ("passes.static_branches", "count", per_item "passes.static_branches");
    ("passes.static_dmas", "count", per_item "passes.static_dmas");
    ("passes.dynamic_dmas", "count", per_item "passes.dynamic_dmas");
    ("autotune.rank_us", "us", mean 1e6 [ "Cost_learn.rank" ]);
    ("autotune.search_self_s", "s", per_item "autotune.search_self_s");
    ( "autotune.measured_frac",
      "frac",
      ratio "autotune.measured" "autotune.trials" );
    ("autotune.invalid_frac", "frac", ratio "autotune.invalid" "autotune.trials");
    ("autotune.trials_to_best", "count", per_item "autotune.trials_to_best");
    ( "graph.compile_noresident_s",
      "s",
      mean 1. [ "Compiled.compile(resident=false)" ] );
    ("graph.residency_s", "s", per_item "graph.residency_s");
    ("graph.run_ms", "ms", mean 1e3 [ "Compiled.run" ]);
    ("graph.fused", "count", per_item "graph.fused");
    ("graph.resident_edges", "count", per_item "graph.resident_edges");
    ("tir.cost_us", "us", mean 1e6 [ "Cost.measure" ]);
    ("tir.exec_compile_us", "us", mean 1e6 [ "Exec.compile" ]);
    ("tir.exec_run_ms", "ms", mean 1e3 [ "Exec.run_compiled" ]);
    ("tir.eval_run_ms", "ms", mean 1e3 [ "Eval.run_counted" ]);
    ("tir.dma_counts_us", "us", mean 1e6 [ "Cost.dma_counts" ]);
    ("tir.reference_ms", "ms", mean 1e3 [ "Op.reference"; "Nets.reference" ]);
    ("tir.c_bytes", "B", per_item "tir.c_bytes");
    ("modeled.h2d_ms", "ms", ms (fun s -> s.I.Stats.h2d_s));
    ("modeled.kernel_ms", "ms", ms (fun s -> s.I.Stats.kernel_s));
    ("modeled.d2h_ms", "ms", ms (fun s -> s.I.Stats.d2h_s));
    ("modeled.host_ms", "ms", ms (fun s -> s.I.Stats.host_s));
    ("modeled.launch_ms", "ms", ms (fun s -> s.I.Stats.launch_s));
    ("modeled.bytes_h2d", "B", modeled_mean (fun s -> float s.I.Stats.bytes_h2d));
    ("modeled.bytes_d2h", "B", modeled_mean (fun s -> float s.I.Stats.bytes_d2h));
    ("fuzz.configs_checked", "count", per_item "fuzz.configs_checked");
    ("fuzz.rejected", "count", per_item "fuzz.rejected");
    ("trace.items_per_s", "1/s", ips_traced);
    ("trace.untraced_items_per_s", "1/s", ips_untraced);
    ("trace.overhead_pct", "%", 100. *. ((ips_untraced /. ips_traced) -. 1.));
  ]

let metrics_json metrics =
  Json.Obj
    (List.map
       (fun (name, unit, v) ->
         (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]))
       metrics)

let item_json label items (r : record) =
  let o = r.outcome in
  let failure =
    match o.Work.failure with Some m -> Json.Str m | None -> Json.Null
  in
  Json.Obj
    [
      ("index", Json.Num (float r.index));
      ("label", Json.Str (label items.(r.index)));
      ("digest", Json.Str o.Work.digest);
      ("item_s", Json.Num o.Work.item_s);
      ("compile_s", Json.Num o.Work.compile_s);
      ("exec_s", Json.Num o.Work.exec_s);
      ("modeled_s", Json.Num (I.Stats.total_s o.Work.modeled));
      ("failure", failure);
    ]

let write_file path s =
  Out_channel.with_open_text path (fun oc -> output_string oc s)

let main (type a) (module W : WORKLOAD with type item = a) ~workload ~seed
    ~seconds ~trace =
  let prov = provenance ~workload ~seed ~seconds ~trace in
  let host = Meter.host () in
  let setups =
    List.init setup_repeats (fun _ ->
        Meter.maybe_probe host;
        Meter.timed (fun () ->
            let items = W.setup ~seed in
            ignore (W.run Meter.off (Meter.tally ()) items.(0));
            items))
  in
  let items = fst (List.hd (List.rev setups)) in
  let untraced =
    measure W.run items Meter.off (Meter.tally ())
      ~seconds:(if trace then seconds /. 2. else seconds)
      ~whole_passes:true ~host
  in
  let tr = Meter.tracer trace and tl = Meter.tally () in
  let traced =
    if trace then
      measure W.run items tr tl ~seconds:(seconds /. 2.) ~whole_passes:false
        ~host
    else []
  in
  let records = untraced @ traced in
  let failures = failed records in
  let factor = Meter.host_factor host in
  let end_to_end = end_to_end ~setup_s:(List.map snd setups) untraced in
  let metrics =
    if trace then per_layer ~untraced ~traced tr tl else end_to_end ~factor
  in
  let fail_frac =
    float (List.length failures) /. float (List.length records)
  in
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let stem =
    Printf.sprintf "%s/%s-seed%d-trace%d" out_dir workload seed
      (Bool.to_int trace)
  in
  if trace then Meter.write_trace tr (stem ^ ".trace.jsonl");
  let probes = List.rev_map (fun c -> Json.Num c) host.Meter.probes in
  write_file (stem ^ ".json")
    (Json.to_string
       (Json.Obj
          [
            ("provenance", prov);
            ("metrics", metrics_json metrics);
            ("fail_frac", Json.Num fail_frac);
            ("host_factor", Json.Num factor);
            ("host_probes_s", Json.List probes);
            ("measured_metrics", metrics_json (end_to_end ~factor:1.));
            ("items", Json.List (List.map (item_json W.label items) records));
          ])
    ^ "\n");
  Printf.printf "perfbench %s seed=%d trace=%b items=%d distinct=%d\n" workload
    seed trace (List.length records) (Array.length items);
  Printf.printf "provenance %s\n" (Json.to_string prov);
  List.iter
    (fun (name, unit, v) -> Printf.printf "  %-28s %14.6g %s\n" name v unit)
    (metrics @ [ ("fail_frac", "frac", fail_frac); ("host_factor", "", factor) ]);
  List.iter
    (fun r ->
      Printf.printf "FAILED %s: %s\n" (W.label items.(r.index))
        (Option.value ~default:"" r.outcome.Work.failure))
    failures;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failures = []));
            ("attempted", Json.Num (float (List.length records)));
            ("failed", Json.Num (float (List.length failures)));
            ("metrics", metrics_json metrics);
          ]));
  exit (if failures = [] then 0 else 1)

let () =
  guard_env ();
  let workload, seed, seconds, trace = parse_args () in
  let (module W) = List.assoc workload workloads in
  main (module W) ~workload ~seed ~seconds ~trace
