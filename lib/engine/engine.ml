let log_src = Logs.Src.create "imtp.engine" ~doc:"IMTP build/measure engine"

module Log = (val Logs.src_log log_src : Logs.LOG)
module Obs = Imtp_obs.Obs
module Op = Imtp_workload.Op
module L = Imtp_lower.Lowering
module Pl = Imtp_passes.Pipeline
module Cost = Imtp_tir.Cost
module Stats = Imtp_upmem.Stats

type error =
  | Sketch_invalid of string
  | Verifier_rejected of Verifier.rejection
  | Lower_failed of string
  | Cost_failed of string

let error_to_string = function
  | Sketch_invalid m -> "sketch: " ^ m
  | Verifier_rejected r -> "verifier: " ^ r.Verifier.reason
  | Lower_failed m -> "lower: " ^ m
  | Cost_failed m -> "cost: " ^ m

type artifact = {
  key : string;
  sched : Imtp_schedule.Sched.t;
  lowered : Imtp_tir.Program.t;
  program : Imtp_tir.Program.t;
  stats : Imtp_upmem.Stats.t;
}

type measurement = { artifact : artifact; latency_s : float; from_cache : bool }

type prepared = {
  pkey : string;
  psched : Imtp_schedule.Sched.t;
  plowered : Imtp_tir.Program.t;
  pprogram : Imtp_tir.Program.t;
}

type counters = {
  lookups : int;
  hits : int;
  misses : int;
  evictions : int;
  built : int;
  failed : int;
  costed : int;
  sketch_s : float;
  lower_s : float;
  passes_s : float;
  verify_s : float;
  cost_s : float;
}

(* The memo table's value for one candidate fingerprint: how far the
   pipeline got.  A failure at any stage is final; a [Prepared] entry is
   finished in place when a caller needs its cost stage, so no candidate
   is lowered twice. *)
type entry =
  | Failed of error
  | Prepared of prepared
  | Finished of prepared * artifact

type t = {
  cfg : Imtp_upmem.Config.t;
  max_entries : int;
  lock : Mutex.t;
      (* Guards [entries], [lowerings] and [c].  Stage work (sketch,
         lower, passes, verify, cost) always runs outside the lock, so
         parallel builds only contend on table lookups and counter
         bumps. *)
  entries : (string, entry) Hashtbl.t;
  lowerings : (string, (Imtp_tir.Program.t, error) result) Hashtbl.t;
  mutable c : counters;
}

let zero_counters =
  {
    lookups = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    built = 0;
    failed = 0;
    costed = 0;
    sketch_s = 0.;
    lower_s = 0.;
    passes_s = 0.;
    verify_s = 0.;
    cost_s = 0.;
  }

let create ?(max_entries = 4096) cfg =
  {
    cfg;
    max_entries;
    lock = Mutex.create ();
    entries = Hashtbl.create 256;
    lowerings = Hashtbl.create 64;
    c = zero_counters;
  }

let config t = t.cfg
let locked t f = Mutex.protect t.lock f

(* A consistent snapshot: the counters record is immutable, so taking
   the lock for the read means no torn view even while worker domains
   are updating it. *)
let counters t = locked t (fun () -> t.c)

let hit_rate c =
  if c.lookups = 0 then 0. else float_of_int c.hits /. float_of_int c.lookups

let log_summary t =
  let c = counters t in
  Log.info (fun m ->
      m
        "cache: %d/%d hits (%.1f%%), %d built, %d failed, %d evictions; \
         stage times: sketch %.1f ms, lower %.1f ms, passes %.1f ms, verify \
         %.1f ms, cost %.1f ms"
        c.hits c.lookups
        (100. *. hit_rate c)
        c.built c.failed c.evictions (c.sketch_s *. 1e3) (c.lower_s *. 1e3)
        (c.passes_s *. 1e3) (c.verify_s *. 1e3) (c.cost_s *. 1e3))

let noise_amplitude = 0.02

(* ------------------------------------------------------------------ *)
(* Canonical structural hashing.                                       *)
(* ------------------------------------------------------------------ *)

let rec elem_key = function
  | Op.Ref t -> "R" ^ t
  | Op.Const v -> "K" ^ Imtp_tensor.Value.to_string v
  | Op.Acc -> "@"
  | Op.Bin (b, x, y) ->
      let o =
        match b with
        | Op.Add -> "+"
        | Op.Sub -> "-"
        | Op.Mul -> "*"
        | Op.Div -> "/"
        | Op.Min -> "<"
        | Op.Max -> ">"
      in
      Printf.sprintf "(%s%s%s)" (elem_key x) o (elem_key y)

let axis_key (a : Op.axis) =
  Printf.sprintf "%s:%d:%c" a.Op.aname a.Op.extent
    (match a.Op.kind with Op.Spatial -> 's' | Op.Reduction -> 'r')

let tensor_key (name, axes) = name ^ "[" ^ String.concat "," axes ^ "]"

let op_key (op : Op.t) =
  String.concat ";"
    [
      op.Op.opname;
      Imtp_tensor.Dtype.to_string op.Op.dtype;
      String.concat "," (List.map axis_key op.Op.axes);
      String.concat "," (List.map tensor_key op.Op.inputs);
      tensor_key op.Op.output;
      elem_key op.Op.body;
    ]
  (* Appended only when present so pre-epilogue keys stay unchanged
     (golden search traces depend on them). *)
  ^ match op.Op.epilogue with None -> "" | Some e -> ";epi" ^ elem_key e

let params_key (p : Sketch.params) =
  Printf.sprintf "sd%d;rd%d;t%d;c%d;rows%d;u%b;ht%d" p.Sketch.spatial_dpus
    p.Sketch.reduction_dpus p.Sketch.tasklets p.Sketch.cache_elems
    p.Sketch.rows_per_tasklet p.Sketch.unroll_inner p.Sketch.host_threads

let options_key (o : L.options) =
  Printf.sprintf "bulk%b;par%b;hrt%d;af%b;skip%s" o.L.bulk_transfer
    o.L.parallel_transfer o.L.host_reduce_threads o.L.affine_guards
    (String.concat "," (List.sort String.compare o.L.skip_input_transfer))
  (* conditional so pre-residency keys stay byte-identical. *)
  ^ if o.L.skip_output_transfer then ";skipout" else ""

let digest_parts parts = Digest.to_hex (Digest.string (String.concat "|" parts))

let candidate_options ?(skip_inputs = []) ?(passes = Pl.all_on) params =
  {
    (Sketch.lower_options params) with
    L.skip_input_transfer = skip_inputs;
    L.affine_guards = passes.Pl.affine;
  }

let fingerprint ?(passes = Pl.all_on) ?skip_inputs ?(verify = true) op params =
  digest_parts
    [
      op_key op;
      params_key params;
      Pl.config_name passes;
      options_key (candidate_options ?skip_inputs ~passes params);
      (if verify then "v" else "nv");
    ]

(* ------------------------------------------------------------------ *)
(* The staged pipeline.  Each stage exists once; stage timings are     *)
(* accumulated into the engine's counters when one is at hand.         *)
(* ------------------------------------------------------------------ *)

(* Each stage is timed twice on purpose: CPU time (Sys.time) feeds the
   engine's counters, exactly as before, while the Obs span records
   wall clock and the Obs histogram aggregates the per-stage latency
   distribution under the stable names `engine.stage.<stage>_s`. *)
let timed t ~stage add f =
  Obs.span ~name:("engine." ^ stage) (fun () ->
      let t0 = Sys.time () in
      let r = f () in
      let dt = Sys.time () -. t0 in
      (match t with
      | Some t -> locked t (fun () -> t.c <- add t.c dt)
      | None -> ());
      Obs.observe ("engine.stage." ^ stage ^ "_s") dt;
      r)

let add_sketch c dt = { c with sketch_s = c.sketch_s +. dt }
let add_lower c dt = { c with lower_s = c.lower_s +. dt }
let add_passes c dt = { c with passes_s = c.passes_s +. dt }
let add_verify c dt = { c with verify_s = c.verify_s +. dt }
(* Every run of the cost stage is one simulator execution; [costed] is
   the ledger the measurement-gated search is judged against. *)
let add_cost c dt = { c with cost_s = c.cost_s +. dt; costed = c.costed + 1 }

let stage_sketch ?t op params =
  timed t ~stage:"sketch" add_sketch (fun () ->
      match Sketch.instantiate op params with
      | sched -> Ok sched
      | exception Invalid_argument m -> Error (Sketch_invalid m))

let stage_lower ?t ~options sched =
  timed t ~stage:"lower" add_lower (fun () ->
      match L.lower ~options sched with
      | prog -> Ok prog
      | exception L.Lower_error m -> Error (Lower_failed m))

let stage_passes ?t ~passes cfg prog =
  timed t ~stage:"passes" add_passes (fun () -> Pl.run ~config:passes cfg prog)

let stage_verify_sched ?t cfg sched =
  timed t ~stage:"verify" add_verify (fun () ->
      match Verifier.check_sched cfg sched with
      | Ok () -> Ok ()
      | Error r -> Error (Verifier_rejected r))

let stage_verify_program ?t cfg prog =
  timed t ~stage:"verify" add_verify (fun () ->
      match Verifier.check cfg prog with
      | Ok () -> Ok ()
      | Error r -> Error (Verifier_rejected r))

(* Optional device-measurement latency emulation: on real PIM hardware
   a measurement is a round-trip to the device and the tuner mostly
   waits, so IMTP_SIM_LATENCY_US > 0 adds that wall-clock stall to
   every simulator execution.  The stall is pure waiting — it never
   changes stats or the CPU-time counters — and it is what the
   island-scaling benchmark uses to show measurement overlap across
   concurrent searches.  Read per call so a bench can vary it between
   phases of one process. *)
let sim_latency_s () =
  match Sys.getenv_opt "IMTP_SIM_LATENCY_US" with
  | None -> 0.
  | Some s -> (
      match float_of_string_opt (String.trim s) with
      | Some us when us > 0. -> us *. 1e-6
      | Some _ | None -> 0.)

let stage_cost ?t cfg prog =
  timed t ~stage:"cost" add_cost (fun () ->
      match Cost.measure cfg prog with
      | stats ->
          let stall = sim_latency_s () in
          if stall > 0. then Unix.sleepf stall;
          Ok stats
      | exception Cost.Error m -> Error (Cost_failed m))

let compile_sched ?(options = L.default_options) ?(passes = Pl.all_on) cfg sched
    =
  match stage_lower ~options sched with
  | Error _ as e -> e
  | Ok prog -> Ok (stage_passes ~passes cfg prog)

let estimate cfg prog = stage_cost cfg prog

let optimize t ?(passes = Pl.all_on) prog =
  stage_passes ~t ~passes t.cfg prog

(* ------------------------------------------------------------------ *)
(* The memo table: one entry per candidate.                            *)
(* ------------------------------------------------------------------ *)

(* What a request needs from a candidate's entry: the cost-free prefix
   ([prepare]) or the finished artifact ([build], [measure], [batch],
   [simulate]). *)
type need = Prefix | Artifact

let prefix_of = function
  | Failed e -> Error e
  | Prepared p | Finished (p, _) -> Ok p

(* [None] until the cost stage has run. *)
let finished = function
  | Failed e -> Some (Error e)
  | Finished (_, a) -> Some (Ok a)
  | Prepared _ -> None

(* The outcome of an entry resolved for [Artifact], which is never a
   bare [Prepared]. *)
let artifact_of e = Option.get (finished e)
let ok e = Result.is_ok (prefix_of e)
let serves need e = need = Prefix || Option.is_some (finished e)
let span_name = function Prefix -> "engine.prepare" | Artifact -> "engine.build"

(* The ledger of one cache probe.  Caller holds the lock. *)
let count_lookup t ~hit =
  t.c <- { t.c with lookups = t.c.lookups + 1 };
  Obs.incr "engine.cache.lookups";
  if hit then begin
    t.c <- { t.c with hits = t.c.hits + 1 };
    Obs.incr "engine.cache.hits"
  end
  else begin
    t.c <- { t.c with misses = t.c.misses + 1 };
    Obs.incr "engine.cache.misses"
  end

(* Store one outcome in [table], first resetting both tables when they
   hold [max_entries] results.  [fresh:false] marks work that only
   finished an entry already counted in [built].  Caller holds the
   lock. *)
let store t table key v ~fresh ~ok =
  if Hashtbl.length t.entries + Hashtbl.length t.lowerings >= t.max_entries
  then begin
    Hashtbl.reset t.entries;
    Hashtbl.reset t.lowerings;
    t.c <- { t.c with evictions = t.c.evictions + 1 };
    Obs.incr "engine.cache.evictions"
  end;
  Hashtbl.replace table key v;
  if not ok then begin
    t.c <- { t.c with failed = t.c.failed + 1 };
    Obs.incr "engine.failed"
  end
  else if fresh then begin
    t.c <- { t.c with built = t.c.built + 1 };
    Obs.incr "engine.built"
  end

let remember t key ~fresh entry =
  locked t (fun () ->
      (* A prefix-only build racing a full one must not undo it. *)
      let keep =
        match (Hashtbl.find_opt t.entries key, entry) with
        | Some old, Prepared _ when Option.is_some (finished old) -> old
        | _ -> entry
      in
      store t t.entries key keep ~fresh ~ok:(ok entry));
  entry

let ( let* ) = Result.bind

(* Everything but the cost stage: the cheap prefix of the pipeline that
   the learned cost model's feature extraction needs. *)
let prepare_uncached t ~passes ~options ~verify ~key op params =
  let* sched = stage_sketch ~t op params in
  let* () = if verify then stage_verify_sched ~t t.cfg sched else Ok () in
  let* lowered = stage_lower ~t ~options sched in
  let program = stage_passes ~t ~passes t.cfg lowered in
  let* () = if verify then stage_verify_program ~t t.cfg program else Ok () in
  Ok { pkey = key; psched = sched; plowered = lowered; pprogram = program }

(* The simulator execution: run the cost stage on a prepared candidate
   and remember the finished entry. *)
let finish t ~fresh (p : prepared) =
  remember t p.pkey ~fresh
    (match stage_cost ~t t.cfg p.pprogram with
    | Error e -> Failed e
    | Ok stats ->
        Obs.incr ~by:stats.Stats.bytes_h2d "engine.bytes_h2d";
        Obs.incr ~by:stats.Stats.bytes_d2h "engine.bytes_d2h";
        Finished
          ( p,
            {
              key = p.pkey;
              sched = p.psched;
              lowered = p.plowered;
              program = p.pprogram;
              stats;
            } ))

(* How each slot of a request will be satisfied, decided up front in
   list order under the lock, so the hit/miss ledger and [from_cache]
   flags are the same no matter how many domains then race on the work:
   - [Cached e]: the table's entry already serves the request; it is
     captured here so a mid-batch eviction can't change the answer.
   - [Work p]: first occurrence of a key the table can't serve; this
     slot runs the missing stages — only the cost stage when the table
     already holds the candidate's prefix [p].
   - [Dup i]: later occurrence of slot [i]'s key; reported as a cache
     hit (as the sequential walk would) and filled from slot [i]'s
     result rather than the table, again to be eviction-proof. *)
type plan = Cached of entry | Work of prepared option | Dup of int

let classify t ~need keys =
  locked t (fun () ->
      let first = Hashtbl.create 16 in
      Array.mapi
        (fun i key ->
          let slot =
            match Hashtbl.find_opt t.entries key with
            | Some e when serves need e -> Cached e
            | found -> (
                match Hashtbl.find_opt first key with
                | Some i0 -> Dup i0
                | None ->
                    Hashtbl.add first key i;
                    Work
                      (match found with
                      | Some (Prepared p) -> Some p
                      | Some _ | None -> None))
          in
          count_lookup t ~hit:(match slot with Work _ -> false | _ -> true);
          slot)
        keys)

(* Run the stages a [Work] slot lacks and remember the outcome. *)
let work t ~need ~passes ?skip_inputs ~verify ~key op params = function
  | Some p -> finish t ~fresh:false p
  | None -> (
      let options = candidate_options ?skip_inputs ~passes params in
      match prepare_uncached t ~passes ~options ~verify ~key op params with
      | Error e -> remember t key ~fresh:true (Failed e)
      | Ok p when need = Artifact -> finish t ~fresh:true p
      | Ok p -> remember t key ~fresh:true (Prepared p))

(* One candidate's [engine.build] / [engine.prepare] span. *)
let candidate_span need op f =
  Obs.span ~name:(span_name need)
    ~attrs:[ ("op", Obs.Str op.Op.opname) ]
    (fun () ->
      let ((e, hit) as r) = f () in
      Obs.add_attr "hit" (Obs.Bool hit);
      Obs.add_attr "ok" (Obs.Bool (ok e));
      r)

let resolve t ~need ?(passes = Pl.all_on) ?skip_inputs ?(verify = true) op
    params =
  candidate_span need op (fun () ->
      let key = fingerprint ~passes ?skip_inputs ~verify op params in
      match (classify t ~need [| key |]).(0) with
      | Cached e -> (e, true)
      | Work resume ->
          ( work t ~need ~passes ?skip_inputs ~verify ~key op params resume,
            false )
      | Dup _ -> assert false (* a lone key has no earlier slot *))

let noisy ?rng base =
  match rng with
  | None -> base
  | Some r ->
      base *. (1. +. (noise_amplitude *. ((2. *. Rng.float r 1.) -. 1.)))

let measurement ?rng from_cache artifact =
  let latency_s = noisy ?rng (Stats.total_s artifact.stats) in
  { artifact; latency_s; from_cache }

let build t ?passes ?skip_inputs ?verify op params =
  let e, _ = resolve t ~need:Artifact ?passes ?skip_inputs ?verify op params in
  artifact_of e

let measure t ?rng ?passes ?skip_inputs ?verify op params =
  let e, from_cache =
    resolve t ~need:Artifact ?passes ?skip_inputs ?verify op params
  in
  Result.map (measurement ?rng from_cache) (artifact_of e)

let prepare t ?passes ?skip_inputs ?verify op params =
  let e, _ = resolve t ~need:Prefix ?passes ?skip_inputs ?verify op params in
  prefix_of e

let simulate t ?rng (p : prepared) =
  Obs.span ~name:"engine.simulate" (fun () ->
      let e, from_cache =
        match (classify t ~need:Artifact [| p.pkey |]).(0) with
        | Cached e -> (e, true)
        | Work _ | Dup _ -> (finish t ~fresh:false p, false)
      in
      Obs.add_attr "hit" (Obs.Bool from_cache);
      Result.map (measurement ?rng from_cache) (artifact_of e))

let find t ?passes ?skip_inputs ?verify op params =
  let key = fingerprint ?passes ?skip_inputs ?verify op params in
  locked t (fun () -> Option.bind (Hashtbl.find_opt t.entries key) finished)

let slot_noise rng =
  let base = Rng.bits rng in
  fun index -> Rng.stream ~base ~index

(* Functional execution of a built program.  All hot-path executions
   (CLI runs, graph nodes, the core [Imtp.execute]) funnel through
   here so the trace records which executor backend served them. *)
let execute prog ~inputs =
  Obs.span ~name:"engine.execute"
    ~attrs:[ ("executor", Obs.Str (Imtp_tir.Exec.backend_name ())) ]
    (fun () -> Imtp_tir.Exec.run_counted prog ~inputs)

(* A whole generation: classify every slot, run the [Work] slots across
   up to [jobs] domains, and return each candidate with its entry and
   [from_cache] flag, in candidate order. *)
let resolve_batch t ~span ~need ?jobs ?(passes = Pl.all_on) ?skip_inputs
    ?(verify = true) op candidates =
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  let cands = Array.of_list candidates in
  let n = Array.length cands in
  Obs.span ~name:span
    ~attrs:
      [
        ("op", Obs.Str op.Op.opname);
        ("size", Obs.Int n);
        ("jobs", Obs.Int jobs);
      ]
    (fun () ->
      let parent = Obs.current_span_id () in
      let keys =
        Array.map (fun p -> fingerprint ~passes ?skip_inputs ~verify op p) cands
      in
      let plan = classify t ~need keys in
      let run i =
        match plan.(i) with
        | Cached _ | Dup _ -> None
        | Work resume ->
            Obs.with_ambient_parent parent (fun () ->
                candidate_span need op (fun () ->
                    ( work t ~need ~passes ?skip_inputs ~verify ~key:keys.(i)
                        op cands.(i) resume,
                      false )))
            |> fst |> Option.some
      in
      let worked, util = Pool.map_stats ~jobs run n in
      let misses =
        Array.fold_left (fun a w -> a + Bool.to_int (Option.is_some w)) 0 worked
      in
      Obs.add_attr "hits" (Obs.Int (n - misses));
      Obs.add_attr "misses" (Obs.Int misses);
      Obs.add_attr "domains_used" (Obs.Int (Array.length util));
      Obs.add_attr "utilization"
        (Obs.Str
           (String.concat ","
              (Array.to_list util
              |> List.map (fun (tasks, busy) ->
                     Printf.sprintf "%d:%.4fs" tasks busy))));
      List.mapi
        (fun i p ->
          match plan.(i) with
          | Cached e -> (p, e, true)
          | Work _ -> (p, Option.get worked.(i), false)
          | Dup i0 -> (p, Option.get worked.(i0), true))
        candidates)

let batch t ?jobs ?rng ?passes ?skip_inputs ?verify op candidates =
  (* One draw per batch: the caller's rng advances identically whatever
     [jobs] is, and candidate [i]'s noise comes from its own stream. *)
  let noise = Option.map slot_noise rng in
  let c0 = counters t in
  let results =
    resolve_batch t ~span:"engine.batch" ~need:Artifact ?jobs ?passes
      ?skip_inputs ?verify op candidates
    |> List.mapi (fun i (p, e, from_cache) ->
           let rng = Option.map (fun slot -> slot i) noise in
           (p, Result.map (measurement ?rng from_cache) (artifact_of e)))
  in
  let c1 = counters t in
  Log.debug (fun m ->
      m
        "batch of %d: %d hits, %d misses (run total %d/%d, %.1f%%); stage \
         times +sketch %.2f ms +lower %.2f ms +passes %.2f ms +verify %.2f \
         ms +cost %.2f ms"
        (List.length candidates)
        (c1.hits - c0.hits) (c1.misses - c0.misses) c1.hits c1.lookups
        (100. *. hit_rate c1)
        ((c1.sketch_s -. c0.sketch_s) *. 1e3)
        ((c1.lower_s -. c0.lower_s) *. 1e3)
        ((c1.passes_s -. c0.passes_s) *. 1e3)
        ((c1.verify_s -. c0.verify_s) *. 1e3)
        ((c1.cost_s -. c0.cost_s) *. 1e3));
  results

(* Draws nothing from any rng: ranking a population must not disturb
   the caller's noise stream. *)
let prepare_batch t ?jobs ?passes ?skip_inputs ?verify op candidates =
  resolve_batch t ~span:"engine.prepare_batch" ~need:Prefix ?jobs ?passes
    ?skip_inputs ?verify op candidates
  |> List.map (fun (p, e, _) -> (p, prefix_of e))

let lower_keyed t ~key thunk =
  let cached =
    locked t (fun () ->
        let r = Hashtbl.find_opt t.lowerings key in
        count_lookup t ~hit:(Option.is_some r);
        r)
  in
  match cached with
  | Some r -> r
  | None ->
      let r = timed (Some t) ~stage:"lower" add_lower thunk in
      locked t (fun () ->
          store t t.lowerings key r ~fresh:true ~ok:(Result.is_ok r));
      r
