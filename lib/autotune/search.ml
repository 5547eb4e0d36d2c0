let log_src = Logs.Src.create "imtp.search" ~doc:"IMTP evolutionary search"

module Log = (val Logs.src_log log_src : Logs.LOG)
module Engine = Imtp_engine.Engine
module Pool = Imtp_engine.Pool
module Rng = Imtp_engine.Rng
module Sketch = Imtp_engine.Sketch
module Obs = Imtp_obs.Obs

type strategy = { balanced_sampling : bool; adaptive_epsilon : bool }

let tvm_default = { balanced_sampling = false; adaptive_epsilon = false }
let imtp_default = { balanced_sampling = true; adaptive_epsilon = true }

type record = {
  trial : int;
  island : int;
  params : Sketch.params;
  latency_s : float;
  best_so_far : float;
  measured : bool;
  predicted_s : float option;
}

type island_stats = {
  island : int;
  island_trials : int;
  island_generations : int;
  island_measured : int;
  island_skipped : int;
  island_invalid : int;
  island_migrations : int;
  island_best_s : float option;
}

type outcome = {
  best : Measure.result option;
  history : record list;
  invalid_candidates : int;
  rejections : (string * int) list;
  measured : int;
  measured_trials : int;
  skipped : int;
  cache_hits : int;
  elapsed_s : float;
  interrupted : bool;
  resumed_from : int option;
  islands : int;
  per_island : island_stats list;
}

(* ------------------------------------------------------------------ *)
(* Checkpoints                                                         *)
(* ------------------------------------------------------------------ *)

(* Everything one island's loop mutates, snapshotted at a rendezvous
   boundary.  All fields are plain data (no closures), so a checkpoint
   marshals to disk as-is ({!Checkpoint}); [Rng.t] serializes its exact
   draw position, which is what makes resumption bit-identical.  The
   engine's memo tables are deliberately NOT part of the state: cached
   artifacts are a pure function of their candidate, so a resumed run
   on a cold cache rebuilds the same values — only the cache-ledger
   fields of the outcome ([cache_hits], [measured_trials]) reflect the
   executions this process actually paid for. *)
type island_state = {
  il_island : int;
  il_trials : int;  (* this island's trial budget *)
  il_rng : Rng.t;
  il_model : Cost_model.t;
  il_seen : (Sketch.params, unit) Hashtbl.t;
  il_skipped_seen : (Sketch.params, unit) Hashtbl.t;
  il_history : record list;  (* newest first, as the loop keeps it *)
  il_best : Measure.result option;
  il_invalid : int;
  il_rejections : (string, int) Hashtbl.t;
  il_measured : int;
  il_skipped : int;
  il_trial : int;
  il_population : (Sketch.params * float) list;
  il_generations : int;
  il_migrations : int;
  il_done : bool;  (* trial budget exhausted *)
  il_migrated : bool;
      (* whether the migration of the snapshot's boundary has already
         been applied to [il_population]; a resumed island replays the
         migration when this is false. *)
}

type checkpoint = {
  ck_format : int;
  ck_op_key : string;  (* Engine.op_key, pins the operator identity *)
  ck_op_name : string;
  ck_seed : int;
  ck_trials : int;
  ck_strategy : strategy;
  ck_use_cost_model : bool;
  ck_measure_ratio : float option;
  ck_islands : int;
  ck_migrate_every : int;
  ck_boundary : int;  (* rendezvous boundary (= generations when k=1) *)
  ck_tir_model : Cost_learn.t;
      (* the shared model merged from every island's observations
         through [ck_boundary] *)
  ck_states : island_state array;  (* length ck_islands, island order *)
  ck_measured_trials : int;  (* cumulative simulator ledger *)
  ck_cache_hits : int;  (* cumulative engine-cache hits *)
  ck_elapsed_s : float;  (* wall clock consumed before the snapshot *)
}

(* Bump whenever the checkpoint layout (or anything it transitively
   contains) changes incompatibly; {!run} rejects other formats.
   Format 2: island-aware checkpoints.  Every format-2 snapshot
   resumes, including single-island ones whose states are
   post-migration and whose [ck_migrate_every] is not 1: one island
   always rendezvouses every generation, and migrates nothing. *)
let checkpoint_format = 2

let checkpoint_trial ck =
  Array.fold_left (fun a s -> a + s.il_trial) 0 ck.ck_states

let checkpoint_trials ck = ck.ck_trials
let checkpoint_op_name ck = ck.ck_op_name
let checkpoint_seed ck = ck.ck_seed
let checkpoint_measure_ratio ck = ck.ck_measure_ratio
let checkpoint_islands ck = ck.ck_islands

(* Bucket an engine error for the rejection tally: verifier rejections
   keep their constraint name (dpus/tasklets/mram/wram/iram/dma), other
   stages tally under the stage that failed. *)
let rejection_bucket : Engine.error -> string = function
  | Engine.Verifier_rejected r -> r.Imtp_engine.Verifier.constraint_name
  | Engine.Sketch_invalid _ -> "sketch"
  | Engine.Lower_failed _ -> "lower"
  | Engine.Cost_failed _ -> "cost"

let population_size = 16
let top_k = 8
let mutations_per_pick = 4
let exploration_fraction = 0.4
let migration_elites = 2
let max_islands = 64

let epsilon strategy ~trial ~trials =
  if strategy.adaptive_epsilon then begin
    let cutoff = exploration_fraction *. float_of_int trials in
    if float_of_int trial >= cutoff then 0.05
    else 0.5 -. (0.45 *. float_of_int trial /. cutoff)
  end
  else 0.05

let by_latency = fun (_, a) (_, b) -> Float.compare a b
let take n l = List.filteri (fun i _ -> i < n) l

(* The generational population: with balanced sampling active, half the
   slots are reserved for each design space (rfactor / non-rfactor)
   while candidates of both exist, so neither family is prematurely
   dropped (§5.2.3); otherwise it is a plain truncation by fitness —
   and a family that falls out of the population can only re-enter
   through ε-random sampling, which is how the unbalanced search gets
   stuck. *)
let truncate_population strategy ~early pool =
  let sorted = List.sort by_latency pool in
  if strategy.balanced_sampling && early then begin
    let rf, no_rf = List.partition (fun (p, _) -> Sketch.uses_rfactor p) sorted in
    let half = population_size / 2 in
    let a = take half rf and b = take half no_rf in
    let rest =
      List.filter
        (fun c -> not (List.memq c a || List.memq c b))
        sorted
    in
    take population_size (List.sort by_latency (a @ b) @ rest)
  end
  else take population_size sorted

let parent_pool strategy ~early population =
  let sorted = List.sort by_latency population in
  if strategy.balanced_sampling && early then begin
    let rf, no_rf = List.partition (fun (p, _) -> Sketch.uses_rfactor p) sorted in
    let half = max 1 (top_k / 2) in
    match take half rf @ take half no_rf with
    | [] -> take top_k sorted
    | pool -> pool
  end
  else take top_k sorted

let elites population = take migration_elites (List.sort by_latency population)

(* ------------------------------------------------------------------ *)
(* Islands                                                             *)
(* ------------------------------------------------------------------ *)

let clamp_islands k = max 1 (min max_islands k)

let env_islands () =
  match Sys.getenv_opt "IMTP_ISLANDS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some k when k >= 1 -> Some (clamp_islands k)
      | Some _ | None -> None)

(* The mutable working state of one island; a run keeps [k] of these. *)
type island_ctx = {
  ix : int;
  ix_trials : int;
  rng : Rng.t;
  model : Cost_model.t;
  mutable tir : Cost_learn.t;  (* working copy of the learned model *)
  seen : (Sketch.params, unit) Hashtbl.t;
  skipped_seen : (Sketch.params, unit) Hashtbl.t;
  mutable history : record list;  (* newest first *)
  mutable best : Measure.result option;
  mutable invalid : int;
  rejections : (string, int) Hashtbl.t;
  mutable measured : int;
  mutable skipped : int;
  mutable trial : int;
  mutable population : (Sketch.params * float) list;
  mutable generations : int;
  mutable migrations : int;
  mutable epoch_obs : (float array * float) list;
      (* newest first: (features, latency) observed since the last
         model merge — published at the next boundary (gated). *)
  mutable done_ : bool;
}

(* What one island publishes at a boundary: its pre-migration
   population (the ring successor's migrants come from it), its working
   learned model with the epoch's observations that model folded in
   (chronological), and — only when the run emits checkpoints — a full
   snapshot of its state. *)
type publication = {
  pub_population : (Sketch.params * float) list;
  pub_tir : Cost_learn.t;
  pub_obs : (float array * float) list;
  pub_done : bool;  (* the island's trial budget is exhausted *)
  pub_state : island_state option;
}

(* Rendezvous state shared by all islands of one run.  The islands
   share one learned cost model: at every boundary the first island
   past the rendezvous folds all islands' epoch observations into one
   merged model in island order — a deterministic merge — and every
   island then continues from that model; [merged] holds the copies
   handed out.  [pubs] holds at most the current and the previous
   boundary: a boundary's publications are dropped once every island
   has passed it. *)
type island_shared = {
  sm : Mutex.t;
  scv : Condition.t;
  pubs : (int * int, publication) Hashtbl.t;  (* (island, boundary) *)
  final : publication option array;  (* post-migration, once done *)
  merged : Cost_learn.t option array;  (* the boundary's model, to adopt *)
  mutable merged_boundary : int;
  mutable stop_boundary : int option;
  mutable failed : exn option;
}

exception Island_aborted

let run ?(strategy = imtp_default) ?(seed = 2024) ?jobs ?islands
    ?(migrate_every = 2) ?passes ?skip_inputs ?(use_cost_model = true)
    ?measure_ratio ?engine ?resume ?on_checkpoint ?(checkpoint_every = 1)
    ?stop cfg op ~trials =
  let jobs =
    match jobs with Some j -> j | None -> Imtp_engine.Pool.default_jobs ()
  in
  if checkpoint_every < 1 then
    invalid_arg "Search.run: checkpoint_every must be >= 1";
  if migrate_every < 1 then
    invalid_arg "Search.run: migrate_every must be >= 1";
  let op_key = Engine.op_key op in
  (* A resumed run replays the killed run's own configuration — the
     caller's seed/strategy/gating/island arguments are overridden by
     the checkpoint, because mixing a serialized rng stream with
     different search dynamics could not be bit-identical to
     anything. *)
  let strategy, seed, use_cost_model, measure_ratio, trials, islands,
      migrate_every =
    match resume with
    | None ->
        let k =
          match islands with
          | Some k -> clamp_islands k
          | None -> Option.value (env_islands ()) ~default:1
        in
        (* Every island needs at least an initial population's worth of
           budget to evolve anything, so tiny runs shed islands. *)
        let k = min k (max 1 (trials / population_size)) in
        (strategy, seed, use_cost_model, measure_ratio, trials, k,
         migrate_every)
    | Some ck ->
        if ck.ck_format <> checkpoint_format then
          invalid_arg
            (Printf.sprintf
               "Search.run: checkpoint format %d, this build speaks %d"
               ck.ck_format checkpoint_format);
        if ck.ck_op_key <> op_key then
          invalid_arg
            (Printf.sprintf
               "Search.run: checkpoint was recorded for op %s, not %s"
               ck.ck_op_name op.Imtp_workload.Op.opname);
        ( ck.ck_strategy,
          ck.ck_seed,
          ck.ck_use_cost_model,
          ck.ck_measure_ratio,
          ck.ck_trials,
          ck.ck_islands,
          ck.ck_migrate_every )
  in
  (match measure_ratio with
  | Some r when not (r > 0. && r <= 1.) ->
      invalid_arg "Search.run: measure_ratio must be in (0, 1]"
  | Some _ | None -> ());
  let k = islands in
  (* One island has nothing to migrate, so it rendezvouses — merges its
     model, checkpoints, polls [stop] — after every generation. *)
  let migrate_every = if k = 1 then 1 else migrate_every in
  Obs.span ~name:"search.run"
    ~attrs:
      [
        ("op", Obs.Str op.Imtp_workload.Op.opname);
        ("trials", Obs.Int trials);
        ("seed", Obs.Int seed);
        ("jobs", Obs.Int jobs);
        ("islands", Obs.Int k);
        ( "measure_ratio",
          Obs.Float (Option.value measure_ratio ~default:1.) );
        ( "resumed_from",
          Obs.Int
            (match resume with Some ck -> checkpoint_trial ck | None -> -1) );
      ]
  @@ fun () ->
  let t0 = Obs.now_s () in
  let engine =
    match engine with Some e -> e | None -> Engine.create cfg
  in
  let hits0 = (Engine.counters engine).Engine.hits in
  let costed0 = (Engine.counters engine).Engine.costed in
  (* Cumulative ledgers carried over from the killed run, so a resumed
     outcome still reports every simulator execution it (transitively)
     paid for. *)
  let base_measured_trials, base_cache_hits, base_elapsed_s =
    match resume with
    | None -> (0, 0, 0.)
    | Some ck -> (ck.ck_measured_trials, ck.ck_cache_hits, ck.ck_elapsed_s)
  in
  let gated = measure_ratio <> None in
  (* Per-island trial budgets: the total splits as evenly as possible,
     earlier islands taking the remainder. *)
  let budget i = (trials / k) + if i < trials mod k then 1 else 0 in
  let fresh_ctx i =
    {
      ix = i;
      ix_trials = budget i;
      (* One island draws from the seed's own stream, so [~islands:1]
         reproduces every pre-island trace byte-for-byte; with several
         islands each gets its own substream. *)
      rng = (if k = 1 then Rng.create ~seed else Rng.stream ~base:seed ~index:i);
      model = Cost_model.create ();
      tir = Cost_learn.create ();
      seen = Hashtbl.create 64;
      skipped_seen = Hashtbl.create 64;
      history = [];
      best = None;
      invalid = 0;
      rejections = Hashtbl.create 8;
      measured = 0;
      skipped = 0;
      trial = 0;
      population = [];
      generations = 0;
      migrations = 0;
      epoch_obs = [];
      done_ = false;
    }
  in
  (* Deep-copy every piece of resumed state: the caller may resume the
     same in-memory checkpoint several times (tests do), and a run must
     never mutate the snapshot it started from. *)
  let ctx_of_state ~tir (st : island_state) =
    {
      ix = st.il_island;
      ix_trials = st.il_trials;
      rng = Rng.copy st.il_rng;
      model = Cost_model.copy st.il_model;
      tir;
      seen = Hashtbl.copy st.il_seen;
      skipped_seen = Hashtbl.copy st.il_skipped_seen;
      history = st.il_history;
      best = st.il_best;
      invalid = st.il_invalid;
      rejections = Hashtbl.copy st.il_rejections;
      measured = st.il_measured;
      skipped = st.il_skipped;
      trial = st.il_trial;
      population = st.il_population;
      generations = st.il_generations;
      migrations = st.il_migrations;
      epoch_obs = [];
      done_ = st.il_done;
    }
  in
  let state_of_ctx ?(migrated = false) cx =
    {
      il_island = cx.ix;
      il_trials = cx.ix_trials;
      il_rng = Rng.copy cx.rng;
      il_model = Cost_model.copy cx.model;
      il_seen = Hashtbl.copy cx.seen;
      il_skipped_seen = Hashtbl.copy cx.skipped_seen;
      il_history = cx.history;
      il_best = cx.best;
      il_invalid = cx.invalid;
      il_rejections = Hashtbl.copy cx.rejections;
      il_measured = cx.measured;
      il_skipped = cx.skipped;
      il_trial = cx.trial;
      il_population = cx.population;
      il_generations = cx.generations;
      il_migrations = cx.migrations;
      il_done = cx.done_;
      il_migrated = migrated;
    }
  in
  let ledger_counters () =
    let c = Engine.counters engine in
    ( base_measured_trials + c.Engine.costed - costed0,
      base_cache_hits + c.Engine.hits - hits0,
      base_elapsed_s +. (Obs.now_s () -. t0) )
  in
  let make_checkpoint ~boundary ~tir states =
    let measured_trials, cache_hits, elapsed_s = ledger_counters () in
    {
      ck_format = checkpoint_format;
      ck_op_key = op_key;
      ck_op_name = op.Imtp_workload.Op.opname;
      ck_seed = seed;
      ck_trials = trials;
      ck_strategy = strategy;
      ck_use_cost_model = use_cost_model;
      ck_measure_ratio = measure_ratio;
      ck_islands = k;
      ck_migrate_every = migrate_every;
      ck_boundary = boundary;
      ck_tir_model = Cost_learn.copy tir;
      ck_states = states;
      ck_measured_trials = measured_trials;
      ck_cache_hits = cache_hits;
      ck_elapsed_s = elapsed_s;
    }
  in
  let tally cx e =
    cx.invalid <- cx.invalid + 1;
    let b = rejection_bucket e in
    Hashtbl.replace cx.rejections b
      (1 + Option.value (Hashtbl.find_opt cx.rejections b) ~default:0)
  in
  let best_so_far cx =
    match cx.best with Some b -> b.Measure.latency_s | None -> infinity
  in
  let record cx ?predicted_s ~trial params (m : Engine.measurement) =
    cx.measured <- cx.measured + 1;
    Hashtbl.replace cx.seen params ();
    Hashtbl.remove cx.skipped_seen params;
    let latency_s = m.Engine.latency_s in
    Cost_model.observe cx.model (Cost_model.features op params) latency_s;
    if gated then begin
      let x = Cost_learn.features m.Engine.artifact.Engine.program in
      Cost_learn.observe cx.tir x latency_s;
      cx.epoch_obs <- (x, latency_s) :: cx.epoch_obs
    end;
    let r =
      { Measure.params; stats = m.Engine.artifact.Engine.stats; latency_s }
    in
    (match cx.best with
    | Some b when b.Measure.latency_s <= latency_s -> ()
    | Some _ | None ->
        cx.best <- Some r;
        Obs.set_gauge "search.best_latency_s" latency_s);
    Obs.observe "search.trial_latency_s" latency_s;
    cx.history <-
      {
        trial;
        island = cx.ix;
        params;
        latency_s;
        best_so_far = best_so_far cx;
        measured = true;
        predicted_s;
      }
      :: cx.history
  in
  let record_skipped cx ~trial params ~predicted_s =
    cx.skipped <- cx.skipped + 1;
    Hashtbl.replace cx.skipped_seen params ();
    cx.history <-
      {
        trial;
        island = cx.ix;
        params;
        latency_s = predicted_s;
        best_so_far = best_so_far cx;
        measured = false;
        predicted_s = Some predicted_s;
      }
      :: cx.history
  in
  (* One proposal consumes one trial; invalid candidates (typed engine
     errors, cached after first rejection) and duplicate proposals burn
     the trial without contributing offspring. *)
  let consume cx ~trial (params, result) =
    match result with
    | Error e ->
        tally cx e;
        None
    | Ok m ->
        if Hashtbl.mem cx.seen params then None
        else begin
          record cx ~trial params m;
          Some (params, m.Engine.latency_s)
        end
  in
  let random_valid cx =
    let rec go attempts =
      if attempts = 0 then None
      else begin
        let params = Sketch.random cx.rng cfg op in
        let result =
          Engine.measure engine ~rng:cx.rng ?passes ?skip_inputs op params
        in
        match consume cx ~trial:cx.trial (params, result) with
        | Some c -> Some c
        | None -> go (attempts - 1)
      end
    in
    go 16
  in
  (* Initial population under gating: measure until the TIR model has
     its ground truth, then admit the rest of the population on
     predicted fitness alone. *)
  let random_valid_gated cx =
    let rec go attempts =
      if attempts = 0 then None
      else begin
        let params = Sketch.random cx.rng cfg op in
        if Hashtbl.mem cx.seen params || Hashtbl.mem cx.skipped_seen params
        then go (attempts - 1)
        else begin
          match Engine.prepare engine ?passes ?skip_inputs op params with
          | Error e ->
              tally cx e;
              go (attempts - 1)
          | Ok prep ->
              let x = Cost_learn.features prep.Engine.pprogram in
              if not (Cost_learn.trained cx.tir) then begin
                match Engine.simulate engine ~rng:cx.rng prep with
                | Error e ->
                    tally cx e;
                    go (attempts - 1)
                | Ok m ->
                    record cx ~trial:cx.trial params m;
                    Some (params, m.Engine.latency_s)
              end
              else begin
                let predicted_s = Cost_learn.predict cx.tir x in
                record_skipped cx ~trial:cx.trial params ~predicted_s;
                Some (params, predicted_s)
              end
        end
      end
    in
    go 16
  in
  (* Initial population: random sampling (uniform across design
     spaces, hence unaffected by the balanced sampler).  A resumed run
     skips it — the restored state is already past it. *)
  let init_island cx =
    Obs.span ~name:"search.init" ~attrs:[ ("island", Obs.Int cx.ix) ]
      (fun () ->
        let sample = if gated then random_valid_gated else random_valid in
        while cx.trial < min cx.ix_trials population_size do
          (match sample cx with
          | Some c -> cx.population <- c :: cx.population
          | None -> ());
          cx.trial <- cx.trial + 1
        done)
  in
  (* One generation: propose against the fixed parent pool, then
     measure — as one engine batch when ungated, or prepared / ranked /
     gate-measured when gated.  Gated simulations go through the pool
     too: per-slot noise streams make the values independent of how
     many workers (or islands) run concurrently. *)
  let step_generation cx =
    Obs.span ~name:"search.generation"
      ~attrs:[ ("trial", Obs.Int cx.trial); ("island", Obs.Int cx.ix) ]
    @@ fun () ->
    let early =
      float_of_int cx.trial
      < exploration_fraction *. float_of_int cx.ix_trials
    in
    let parents = parent_pool strategy ~early cx.population in
    let gen_size = min population_size (cx.ix_trials - cx.trial) in
    let propose i =
      let eps =
        epsilon strategy ~trial:(cx.trial + i) ~trials:cx.ix_trials
      in
      if Rng.float cx.rng 1. < eps || parents = [] then
        Sketch.random cx.rng cfg op
      else begin
        let parent, _ = Rng.pick cx.rng parents in
        let muts =
          (* mostly single-field mutations, occasionally two fields
             at once to escape coordinate-wise local optima. *)
          List.init mutations_per_pick (fun _ ->
              let m = Sketch.mutate cx.rng cfg op parent in
              if Rng.float cx.rng 1. < 0.3 then Sketch.mutate cx.rng cfg op m
              else m)
        in
        if use_cost_model && Cost_model.trained cx.model then
          List.fold_left
            (fun acc c ->
              let s = Cost_model.predict cx.model (Cost_model.features op c) in
              match acc with
              | Some (_, s') when s' <= s -> acc
              | _ -> Some (c, s))
            None muts
          |> Option.map fst
          |> Option.value ~default:(List.hd muts)
        else List.hd muts
      end
    in
    let candidates = List.init gen_size propose in
    let offspring =
      match measure_ratio with
      | None ->
          let results =
            Engine.batch engine ~jobs ~rng:cx.rng ?passes ?skip_inputs op
              candidates
          in
          List.mapi (fun i r -> consume cx ~trial:(cx.trial + i) r) results
          |> List.filter_map Fun.id
      | Some ratio ->
          (* Prepare the whole generation (no simulator, no rng), rank
             it with the learned model, and forward only the top
             fraction to the simulator.  Selection is a pure function
             of the trial history and the seed: preparation is
             jobs-independent, ranking is stable, and the noise comes
             from [Engine.slot_noise], the [Engine.batch] contract. *)
          let prepped =
            Engine.prepare_batch engine ~jobs ?passes ?skip_inputs op
              candidates
          in
          Obs.span ~name:"search.rank"
            ~attrs:[ ("size", Obs.Int gen_size) ]
          @@ fun () ->
          let fresh =
            List.mapi (fun i (params, r) -> (i, params, r)) prepped
            |> List.filter_map (fun (i, params, r) ->
                   match r with
                   | Ok prep when not (Hashtbl.mem cx.seen params) ->
                       Some (i, params, prep)
                   | Ok _ | Error _ -> None)
          in
          List.iter
            (fun (_, r) ->
              match r with Error e -> tally cx e | Ok _ -> ())
            prepped;
          let feats =
            List.map
              (fun (_, _, prep) -> Cost_learn.features prep.Engine.pprogram)
              fresh
          in
          let order = Cost_learn.rank cx.tir feats in
          (* Snapshot predictions at ranking time — the model refits as
             measurements are observed below, and the recorded
             [predicted_s] must be the values the selection was made
             from (the re-rank invariant tests hold the log to this). *)
          let trained_at_rank = Cost_learn.trained cx.tir in
          let pred_arr =
            Array.of_list (List.map (Cost_learn.predict cx.tir) feats)
          in
          let n_sel =
            if trained_at_rank then
              Cost_learn.select_count ~ratio (List.length fresh)
            else List.length fresh
          in
          let selected_ranks = take n_sel order in
          let fresh_arr = Array.of_list fresh in
          let selected =
            List.sort compare selected_ranks
            (* measure in proposal order so the noise-stream indices
               below are independent of the ranking. *)
          in
          let noise = Engine.slot_noise cx.rng in
          (* Duplicate proposals of one candidate keep only their first
             slot (exactly the set the sequential loop used to measure);
             the simulations then run through the pool, each drawing
             noise from its own slot-indexed stream. *)
          let sel_fresh =
            let dup = Hashtbl.create 16 in
            List.filter
              (fun idx ->
                let _, params, _ = fresh_arr.(idx) in
                if Hashtbl.mem dup params || Hashtbl.mem cx.seen params then
                  false
                else begin
                  Hashtbl.replace dup params ();
                  true
                end)
              selected
          in
          let sel_arr = Array.of_list sel_fresh in
          let sim_results =
            Pool.map ~jobs
              (fun si ->
                let i, _, prep = fresh_arr.(sel_arr.(si)) in
                Engine.simulate engine ~rng:(noise i) prep)
              (Array.length sel_arr)
          in
          let measured_now = Hashtbl.create 16 in
          Array.iteri
            (fun si result ->
              let idx = sel_arr.(si) in
              let i, params, _ = fresh_arr.(idx) in
              let predicted_s =
                if trained_at_rank then Some pred_arr.(idx) else None
              in
              match result with
              | Error e -> tally cx e
              | Ok m ->
                  record cx ?predicted_s ~trial:(cx.trial + i) params m;
                  Hashtbl.replace measured_now idx (params, m.Engine.latency_s))
            sim_results;
          Obs.add_attr "selected" (Obs.Int (List.length selected));
          Obs.incr ~by:(List.length selected) "search.gate.measured";
          let offspring = ref [] in
          List.iteri
            (fun idx (i, params, _prep) ->
              match Hashtbl.find_opt measured_now idx with
              | Some c -> offspring := c :: !offspring
              | None ->
                  (* a duplicate slot of a candidate measured just above
                     (or skip-recorded before) burns its trial silently *)
                  if
                    (not (Hashtbl.mem cx.skipped_seen params))
                    && not (Hashtbl.mem cx.seen params)
                  then begin
                    let predicted_s = pred_arr.(idx) in
                    if Float.is_finite predicted_s then begin
                      record_skipped cx ~trial:(cx.trial + i) params
                        ~predicted_s;
                      offspring := (params, predicted_s) :: !offspring
                    end
                  end)
            fresh;
          Obs.incr
            ~by:(List.length fresh - List.length selected)
            "search.gate.skipped";
          List.rev !offspring
    in
    cx.trial <- cx.trial + gen_size;
    cx.population <-
      truncate_population strategy ~early (cx.population @ offspring);
    Obs.add_attr "size" (Obs.Int gen_size);
    Obs.add_attr "accepted" (Obs.Int (List.length offspring));
    Obs.add_attr "population" (Obs.Int (List.length cx.population));
    (match cx.best with
    | Some b -> Obs.add_attr "best_s" (Obs.Float b.Measure.latency_s)
    | None -> ());
    Log.debug (fun m ->
        m "island %d trial %d/%d: population %d, best %.6f ms, %d invalid so far"
          cx.ix cx.trial cx.ix_trials
          (List.length cx.population)
          (match cx.best with
          | Some b -> b.Measure.latency_s *. 1e3
          | None -> Float.nan)
          cx.invalid);
    cx.generations <- cx.generations + 1
  in
  (* Confirmation pass (gated only): the final population may hold
     predicted-only candidates the model ranks better than anything
     measured — simulate the most promising few before declaring a
     winner, so a model that found the optimum late still cashes it
     in.  Bounded by a small budget so the simulator ledger stays
     ~ratio-proportional. *)
  let confirm cx =
    match measure_ratio with
    | None -> ()
    | Some ratio ->
        Obs.span ~name:"search.confirm"
          ~attrs:[ ("island", Obs.Int cx.ix) ]
        @@ fun () ->
        let budget = max 3 (Cost_learn.select_count ~ratio population_size) in
        let promising =
          List.filter
            (fun (p, l) ->
              (not (Hashtbl.mem cx.seen p)) && l < best_so_far cx)
            cx.population
          |> List.stable_sort by_latency |> take budget
        in
        Obs.add_attr "candidates" (Obs.Int (List.length promising));
        List.iter
          (fun (params, predicted_s) ->
            match Engine.prepare engine ?passes ?skip_inputs op params with
            | Error e -> tally cx e
            | Ok prep -> (
                match Engine.simulate engine ~rng:cx.rng prep with
                | Error e -> tally cx e
                | Ok m ->
                    record cx ~predicted_s ~trial:cx.trial params m;
                    cx.trial <- cx.trial + 1))
          promising
  in
  let should_stop () = match stop with Some f -> f () | None -> false in
  let apply_migration cx migrants =
    let fresh =
      List.filter
        (fun (p, _) ->
          not (List.exists (fun (q, _) -> q = p) cx.population))
        migrants
    in
    if fresh <> [] then begin
      cx.migrations <- cx.migrations + List.length fresh;
      Obs.incr ~by:(List.length fresh) "search.migrations";
      let early =
        float_of_int cx.trial
        < exploration_fraction *. float_of_int cx.ix_trials
      in
      cx.population <-
        truncate_population strategy ~early (cx.population @ fresh)
    end
  in
  (* ---------------- the island model -------------------------------- *)
  let checkpointing = on_checkpoint <> None in
  (* Full state snapshots are only taken when a checkpoint can be
     emitted; otherwise a boundary publishes just what it consumes. *)
  let publish ?migrated cx obs =
    {
      pub_population = cx.population;
      pub_tir = cx.tir;
      pub_obs = obs;
      pub_done = cx.done_;
      pub_state =
        (if checkpointing then Some (state_of_ctx ?migrated cx) else None);
    }
  in
  let sh =
    {
      sm = Mutex.create ();
      scv = Condition.create ();
      pubs = Hashtbl.create 16;
      final = Array.make k None;
      merged = Array.make k None;
      merged_boundary =
        (match resume with None -> -1 | Some ck -> ck.ck_boundary);
      stop_boundary = None;
      failed = None;
    }
  in
  let ctxs =
    match resume with
    | None -> List.init k fresh_ctx
    | Some ck ->
        (* The checkpoint's model is already merged through its
           boundary.  Islands that finished there (migration applied)
           take no further part; every other island replays whatever
           tail of the boundary its snapshot predates. *)
        Array.to_list ck.ck_states
        |> List.map (fun st ->
               let tir = Cost_learn.copy ck.ck_tir_model in
               let cx = ctx_of_state ~tir st in
               if st.il_done && st.il_migrated then
                 sh.final.(cx.ix) <- Some (publish ~migrated:true cx []);
               cx)
  in
  (* Under [sh.sm].  What island [j] brings to boundary [b]: its
     (pre-migration) publication there or, once done at an earlier
     boundary, its final post-migration one. *)
  let published j b =
    match Hashtbl.find_opt sh.pubs (j, b) with
    | Some p -> Some p
    | None -> sh.final.(j)
  in
  let island_ids = List.init k Fun.id in
  let all_ready b =
    sh.failed <> None
    || List.for_all (fun j -> published j b <> None) island_ids
  in
  let emit_checkpoint ~tir b =
    match on_checkpoint with
    | None -> ()
    | Some f ->
        let state j =
          match published j b with
          | Some { pub_state = Some st; _ } -> st
          | Some { pub_state = None; _ } | None -> assert false
        in
        Obs.incr "search.checkpoints";
        f (make_checkpoint ~boundary:b ~tir (Array.init k state))
  in
  (* A done island exports its post-migration state: later boundaries
     take its elites (and checkpoint its state) from here. *)
  let finish cx =
    let pub = publish ~migrated:true cx [] in
    Mutex.lock sh.sm;
    sh.final.(cx.ix) <- Some pub;
    Condition.broadcast sh.scv;
    Mutex.unlock sh.sm
  in
  (* The boundary rendezvous: publish, wait for the ring, merge the
     shared model once, checkpoint, poll [stop], then migrate from the
     ring predecessor.  Returns true when the run is stopping. *)
  let island_boundary cx b =
    let pub = publish cx (List.rev cx.epoch_obs) in
    cx.epoch_obs <- [];
    Mutex.lock sh.sm;
    Hashtbl.replace sh.pubs (cx.ix, b) pub;
    Condition.broadcast sh.scv;
    while not (all_ready b) do
      Condition.wait sh.scv sh.sm
    done;
    if sh.failed <> None then begin
      Mutex.unlock sh.sm;
      raise Island_aborted
    end;
    if sh.merged_boundary < b then begin
      (* The first island past the rendezvous leads the boundary.  It
         folds the epoch's observations in island order (a
         deterministic merge) and drops the previous boundary's
         publications, which every island has now passed.  The first
         publisher's working model already is the previous merge plus
         that island's observations, so the fold goes into it in place
         and only the other publishers get copies: a lone island
         neither folds nor copies anything. *)
      let tir, rest =
        match
          List.filter_map
            (fun j ->
              Option.map (fun p -> (j, p)) (Hashtbl.find_opt sh.pubs (j, b)))
            island_ids
        with
        | (_, first) :: rest -> (first.pub_tir, rest)
        | [] -> assert false
      in
      List.iter
        (fun (_, p) ->
          List.iter (fun (x, y) -> Cost_learn.observe tir x y) p.pub_obs)
        rest;
      List.iter
        (fun (j, _) -> sh.merged.(j) <- Some (Cost_learn.copy tir))
        rest;
      Hashtbl.filter_map_inplace
        (fun (_, bb) p -> if bb < b then None else Some p)
        sh.pubs;
      sh.merged_boundary <- b;
      (* The due checkpoint goes out before the boundary's one [stop]
         poll, so every island agrees on where the run ends and a stop
         at a boundary whose checkpoint is not due still leaves one.
         A run that is over at [b] has nothing left to stop. *)
      let due = b = 0 || b mod checkpoint_every = 0 in
      if due then emit_checkpoint ~tir b;
      let over =
        List.for_all (fun j -> (Option.get (published j b)).pub_done) island_ids
      in
      if (not over) && should_stop () then begin
        sh.stop_boundary <- Some b;
        if not due then emit_checkpoint ~tir b
      end
    end;
    let stopping = sh.stop_boundary <> None in
    Option.iter (fun m -> cx.tir <- m) sh.merged.(cx.ix);
    sh.merged.(cx.ix) <- None;
    let migrants =
      if b = 0 || stopping then []
      else begin
        match published ((cx.ix + k - 1) mod k) b with
        | Some pb -> elites pb.pub_population
        | None -> []
      end
    in
    Mutex.unlock sh.sm;
    if migrants <> [] then apply_migration cx migrants;
    if cx.done_ && not stopping then finish cx;
    stopping
  in
  let island_main cx =
    Obs.span ~name:"search.island"
      ~attrs:[ ("island", Obs.Int cx.ix); ("trials", Obs.Int cx.ix_trials) ]
    @@ fun () ->
    let b = ref 0 in
    let stopping = ref false in
    (match resume with
    | Some ck ->
        b := ck.ck_boundary;
        (* Replay the tail of the checkpointed boundary for a snapshot
           taken before its migration. *)
        let st = ck.ck_states.(cx.ix) in
        if not st.il_migrated then begin
          let migrants =
            if !b = 0 then []
            else elites ck.ck_states.((cx.ix + k - 1) mod k).il_population
          in
          if migrants <> [] then apply_migration cx migrants;
          if cx.done_ then finish cx
        end
    | None ->
        init_island cx;
        if cx.trial >= cx.ix_trials then cx.done_ <- true;
        stopping := island_boundary cx 0);
    while (not cx.done_) && not !stopping do
      let g = ref 0 in
      while !g < migrate_every && cx.trial < cx.ix_trials do
        step_generation cx;
        incr g
      done;
      if cx.trial >= cx.ix_trials then cx.done_ <- true;
      incr b;
      stopping := island_boundary cx !b
    done;
    if not !stopping then confirm cx
  in
  let guarded cx () =
    try island_main cx with
    | Island_aborted -> ()
    | e ->
        Mutex.lock sh.sm;
        if sh.failed = None then sh.failed <- Some e;
        Condition.broadcast sh.scv;
        Mutex.unlock sh.sm
  in
  let rest =
    List.filter (fun cx -> cx.ix > 0) ctxs
    |> List.map (fun cx -> Thread.create (guarded cx) ())
  in
  guarded (List.hd ctxs) ();
  List.iter Thread.join rest;
  (match sh.failed with Some e -> raise e | None -> ());
  let interrupted = sh.stop_boundary <> None in
  (* ---------------- outcome --------------------------------------- *)
  let elapsed_s = Obs.now_s () -. t0 in
  let total f = List.fold_left (fun a cx -> a + f cx) 0 ctxs in
  let trials_used = total (fun cx -> cx.trial) in
  let measured = total (fun cx -> cx.measured) in
  let skipped = total (fun cx -> cx.skipped) in
  let invalid = total (fun cx -> cx.invalid) in
  Obs.incr ~by:trials_used "search.trials";
  Obs.incr ~by:measured "search.measured";
  Obs.incr ~by:skipped "search.skipped";
  Obs.incr ~by:invalid "search.invalid";
  let measured_trials, cache_hits, _ = ledger_counters () in
  Obs.incr ~by:cache_hits "search.cache_hits";
  Obs.incr ~by:measured_trials "search.measured_trials";
  (match Cost_learn.mean_abs_log_err (List.hd ctxs).tir with
  | Some e -> Obs.set_gauge "search.model_abs_log_err" e
  | None -> ());
  if elapsed_s > 0. then
    Obs.set_gauge "search.trials_per_s"
      (float_of_int trials_used /. elapsed_s);
  let rejections =
    let merged = Hashtbl.create 8 in
    List.iter
      (fun cx ->
        Hashtbl.iter
          (fun key n ->
            Hashtbl.replace merged key
              (n + Option.value (Hashtbl.find_opt merged key) ~default:0))
          cx.rejections)
      ctxs;
    Hashtbl.fold (fun key n acc -> (key, n) :: acc) merged []
    |> List.sort (fun (ka, na) (kb, nb) ->
           match Int.compare nb na with
           | 0 -> String.compare ka kb
           | c -> c)
  in
  let best =
    List.fold_left
      (fun acc cx ->
        match (acc, cx.best) with
        | None, b -> b
        | Some a, Some b when b.Measure.latency_s < a.Measure.latency_s ->
            Some b
        | acc, _ -> acc)
      None ctxs
  in
  let per_island =
    List.map
      (fun cx ->
        {
          island = cx.ix;
          island_trials = cx.trial;
          island_generations = cx.generations;
          island_measured = cx.measured;
          island_skipped = cx.skipped;
          island_invalid = cx.invalid;
          island_migrations = cx.migrations;
          island_best_s =
            Option.map (fun b -> b.Measure.latency_s) cx.best;
        })
      ctxs
  in
  {
    best;
    history = List.concat_map (fun cx -> List.rev cx.history) ctxs;
    invalid_candidates = invalid;
    rejections;
    measured;
    measured_trials;
    skipped;
    cache_hits;
    elapsed_s = base_elapsed_s +. elapsed_s;
    interrupted;
    resumed_from =
      (match resume with Some ck -> Some (checkpoint_trial ck) | None -> None);
    islands = k;
    per_island;
  }
