(** The build/measure engine: one cached, batched code path from a
    schedule candidate to its latency statistics.

    Every consumer of the compilation pipeline — the measurement
    harness, the evolutionary search, the tuner, the differential
    fuzzer and the CLI — goes through this module, so the staged
    pipeline

    {v params -> sched -> lowered program -> pass-optimized program -> stats v}

    exists exactly once.  Results are memoized in a content-addressed
    table keyed by a canonical structural hash over the operator, the
    sketch parameters, the pass configuration and the lowering options,
    so repeated candidates (common under mutation-based evolutionary
    search) are served from cache instead of being re-lowered and
    re-costed.  The table holds one entry per candidate: its cost-free
    prefix ({!prepare}) and, once the cost stage has run, the finished
    artifact — so a prepared candidate that is later built, measured,
    batched or simulated only pays for the cost stage.  Failures are
    typed (and cached too, so a re-proposed invalid candidate is
    rejected without recompilation).

    {2 Thread safety and parallel batches}

    An engine is domain-safe: one mutex guards the candidate table, the
    {!lower_keyed} table and the counters, and all stage work runs
    outside it, so {!batch} can dispatch candidates across a {!Pool} of
    worker domains ([?jobs], default {!Pool.default_jobs}).
    Parallelism never changes answers: a batch classifies every slot
    up front (cache hit, first build of a key, or duplicate of an
    earlier slot), draws one
    value from the caller's [rng] and gives candidate [i] the
    derived stream [Rng.stream ~base ~index:i], so results, order,
    latencies, [from_cache] flags and the integer counters are
    identical at any job count — [~jobs:1] runs the same classified
    path inline on the calling domain with no domains spun up.  The
    only caveat: a duplicate slot reads its builder's result directly,
    so if an eviction fires {e mid-batch} (a batch of distinct new keys
    larger than the remaining [max_entries] headroom) the sequential
    walk could in principle rebuild where the parallel one reuses —
    same values either way, it is only the [from_cache]/counter ledger
    that is defined by the classified contract rather than the table's
    transient state. *)

(** Why a candidate failed to build, stage by stage. *)
type error =
  | Sketch_invalid of string
      (** {!Sketch.instantiate} rejected the parameters. *)
  | Verifier_rejected of Verifier.rejection
      (** the UPMEM code verifier rejected the schedule or program. *)
  | Lower_failed of string  (** lowering refused the schedule. *)
  | Cost_failed of string  (** the timing model could not evaluate. *)

val error_to_string : error -> string
(** Stable one-line rendering, prefixed by the failing stage
    (["sketch: ..."], ["verifier: ..."], ["lower: ..."], ["cost: ..."]). *)

type artifact = {
  key : string;  (** content hash this artifact is cached under. *)
  sched : Imtp_schedule.Sched.t;  (** instantiated schedule. *)
  lowered : Imtp_tir.Program.t;  (** raw lowering, before passes. *)
  program : Imtp_tir.Program.t;  (** after the PIM-aware passes. *)
  stats : Imtp_upmem.Stats.t;  (** deterministic latency breakdown. *)
}
(** Everything the staged pipeline produces for one candidate. *)

type measurement = {
  artifact : artifact;
  latency_s : float;
      (** the tuning objective: [Stats.total_s artifact.stats], with
          multiplicative measurement noise when an [rng] was given. *)
  from_cache : bool;  (** whether the artifact was served from cache. *)
}

type prepared = {
  pkey : string;  (** the same content hash an {!artifact} would use. *)
  psched : Imtp_schedule.Sched.t;
  plowered : Imtp_tir.Program.t;
  pprogram : Imtp_tir.Program.t;
}
(** Everything the pipeline produces {e before} the cost stage — the
    cheap prefix (sketch, verify, lower, passes) whose lowered TIR the
    learned cost model's feature extraction walks.  {!simulate} turns a
    prepared candidate into a full {!measurement} on demand; candidates
    a ranking model skips never pay for the simulator. *)

type counters = {
  lookups : int;  (** cache probes (build/measure/keyed lookups). *)
  hits : int;
  misses : int;
  evictions : int;  (** table resets after exceeding [max_entries]. *)
  built : int;
      (** candidates whose prefix was constructed: finishing a prepared
          candidate's cost stage does not count again. *)
  failed : int;  (** typed errors constructed (and cached). *)
  costed : int;
      (** simulator executions: runs of the cost stage.  Measurement
          gating is judged against this ledger — a gated search must
          show the same best latency with far fewer [costed]. *)
  sketch_s : float;  (** cumulative per-stage build time, seconds. *)
  lower_s : float;
  passes_s : float;
  verify_s : float;
  cost_s : float;
}

type t
(** An engine instance: one machine configuration plus its memo table
    and counters.  Create a fresh engine per independent search run for
    run-local deduplication, or share one across runs to reuse builds. *)

val create : ?max_entries:int -> Imtp_upmem.Config.t -> t
(** [max_entries] (default 4096) bounds the cache: it counts
    candidates (one entry each, whether only prepared or finished)
    plus {!lower_keyed} results.  When exceeded the cache is reset
    (counted in [evictions]) rather than grown. *)

val config : t -> Imtp_upmem.Config.t

val counters : t -> counters
(** A consistent snapshot, taken under the engine lock — safe to diff
    against a later snapshot even while worker domains are updating. *)

val hit_rate : counters -> float
(** [hits / lookups], 0 when no lookups. *)

val log_summary : t -> unit
(** Emit the cache hit rate and per-stage build times on the
    [imtp.engine] {!Logs} source (info level). *)

val noise_amplitude : float
(** Relative measurement noise (±2 %) applied when an [rng] is given. *)

(** {2 Canonical structural hashing} *)

val op_key : Imtp_workload.Op.t -> string
(** Canonical serialization of an operator definition (name, dtype,
    axes, tensor bindings, element expression). *)

val options_key : Imtp_lower.Lowering.options -> string
(** Canonical serialization of lowering options; the resident-input
    list is sorted so its order never splits the cache. *)

val digest_parts : string list -> string
(** Hex digest of the concatenated parts — the content address used by
    the memo table.  Exposed so callers with non-sketch entry points
    (the fuzz oracle) can derive compatible keys. *)

val fingerprint :
  ?passes:Imtp_passes.Pipeline.config ->
  ?skip_inputs:string list ->
  ?verify:bool ->
  Imtp_workload.Op.t ->
  Sketch.params ->
  string
(** The cache key of a sketch candidate: a digest over the operator,
    the parameters, the pass configuration, the lowering options
    derived from the parameters, and the verify toggle.  Stable across
    engine instances and process runs. *)

(** {2 The staged pipeline} *)

val compile_sched :
  ?options:Imtp_lower.Lowering.options ->
  ?passes:Imtp_passes.Pipeline.config ->
  Imtp_upmem.Config.t ->
  Imtp_schedule.Sched.t ->
  (Imtp_tir.Program.t, error) result
(** Uncached schedule-level entry: lower, then run the passes.  No
    verification — this is the facade ([Imtp.compile]) path. *)

val estimate :
  Imtp_upmem.Config.t -> Imtp_tir.Program.t -> (Imtp_upmem.Stats.t, error) result
(** Uncached cost-model entry ([Cost_failed] instead of an exception). *)

val optimize :
  t -> ?passes:Imtp_passes.Pipeline.config -> Imtp_tir.Program.t -> Imtp_tir.Program.t
(** Run the pass pipeline under this engine (counted in [passes_s]). *)

val build :
  t ->
  ?passes:Imtp_passes.Pipeline.config ->
  ?skip_inputs:string list ->
  ?verify:bool ->
  Imtp_workload.Op.t ->
  Sketch.params ->
  (artifact, error) result
(** Instantiate, (pre-)verify, lower, optimize, (post-)verify and cost
    one candidate — or return the cached outcome.  [verify] (default
    [true]) may be disabled for experiments that deliberately sweep
    beyond hardware limits. *)

val find :
  t ->
  ?passes:Imtp_passes.Pipeline.config ->
  ?skip_inputs:string list ->
  ?verify:bool ->
  Imtp_workload.Op.t ->
  Sketch.params ->
  (artifact, error) result option
(** Pure cache inspection under the engine lock: no build, no counter
    updates.  [None] also while the candidate is only prepared. *)

val measure :
  t ->
  ?rng:Rng.t ->
  ?passes:Imtp_passes.Pipeline.config ->
  ?skip_inputs:string list ->
  ?verify:bool ->
  Imtp_workload.Op.t ->
  Sketch.params ->
  (measurement, error) result
(** {!build} plus the measurement objective.  [rng] draws fresh ±2 %
    multiplicative noise per call — also on cache hits, modelling
    run-to-run variation of a real re-measurement — while the cached
    [stats] stay bit-identical. *)

val slot_noise : Rng.t -> int -> Rng.t
(** [slot_noise rng] draws one value from [rng] and returns the map
    from a slot index [i] to that slot's noise stream
    [Rng.stream ~base ~index:i].  This is the per-slot noise contract
    of {!batch}, shared with any caller that measures a generation
    slot by slot (the gated search's {!simulate} loop): the caller's
    stream advances by exactly one draw, and slot [i]'s noise does not
    depend on which domain measures it, or when. *)

val execute :
  Imtp_tir.Program.t ->
  inputs:(string * Imtp_tensor.Tensor.t) list ->
  (string * Imtp_tensor.Tensor.t) list * Imtp_tir.Eval.counters
(** Run a built program on its functional executor ({!Imtp_tir.Exec},
    compiled by default, the interpreter under [IMTP_EXEC=interp]),
    inside an [engine.execute] span whose [executor] attribute records
    which backend served the run. *)

val batch :
  t ->
  ?jobs:int ->
  ?rng:Rng.t ->
  ?passes:Imtp_passes.Pipeline.config ->
  ?skip_inputs:string list ->
  ?verify:bool ->
  Imtp_workload.Op.t ->
  Sketch.params list ->
  (Sketch.params * (measurement, error) result) list
(** Measure a whole generation, dispatching uncached builds across up
    to [jobs] domains (default {!Pool.default_jobs}; [~jobs:1] stays on
    the calling domain), then report the batch's cache hits/misses and
    per-stage build times through {!Logs} (debug level on the
    [imtp.engine] source).  Results keep candidate order and are
    bit-identical at any job count; with an [rng], exactly one value is
    drawn from it per call and candidate [i]'s ±2 % noise comes from
    [Rng.stream ~base ~index:i] (see the determinism contract above).
    The [engine.batch] span records [jobs], [domains_used] and a
    per-domain [utilization] breakdown. *)

(** {2 The prepared (cost-free) prefix}

    The measurement-gated search builds every candidate only up to the
    optimized program ({!prepare}/{!prepare_batch}), extracts model
    features from that TIR, and pays for the cost stage ({!simulate})
    only on the fraction the model ranks worth measuring. *)

val prepare :
  t ->
  ?passes:Imtp_passes.Pipeline.config ->
  ?skip_inputs:string list ->
  ?verify:bool ->
  Imtp_workload.Op.t ->
  Sketch.params ->
  (prepared, error) result
(** {!build} without the cost stage.  The prefix is the candidate's
    table entry under the same fingerprint, which a later {!build},
    {!measure}, {!batch} or {!simulate} finishes in place (a cache
    miss that runs only the cost stage and does not count in [built]).
    A finished candidate serves a prepare lookup as a hit with the very
    program it was costed on, so cache-hit and fresh-built candidates
    yield bit-identical features. *)

val prepare_batch :
  t ->
  ?jobs:int ->
  ?passes:Imtp_passes.Pipeline.config ->
  ?skip_inputs:string list ->
  ?verify:bool ->
  Imtp_workload.Op.t ->
  Sketch.params list ->
  (Sketch.params * (prepared, error) result) list
(** Prepare a whole generation across up to [jobs] domains, under the
    same ahead-of-time classification contract as {!batch}: results,
    order and the hit/miss ledger are bit-identical at any job count.
    Draws nothing from any rng — ranking a population must leave the
    caller's noise stream untouched. *)

val simulate :
  t -> ?rng:Rng.t -> prepared -> (measurement, error) result
(** Run the cost stage on a prepared candidate (or serve the finished
    artifact from cache, also when {!build} finished it) and apply the
    measurement objective, with the same ±2 % noise semantics as
    {!measure}.  Each uncached call is one simulator execution, counted
    in [counters.costed]. *)

val lower_keyed :
  t ->
  key:string ->
  (unit -> (Imtp_tir.Program.t, error) result) ->
  (Imtp_tir.Program.t, error) result
(** Cached raw lowering under a caller-provided content key (see
    {!digest_parts}) — the entry point for consumers whose schedules do
    not come from sketch parameters, e.g. the fuzz oracle's replayed
    step lists.  The thunk runs only on a miss; its outcome (success or
    typed error) is cached either way. *)
