(** Candidate measurement, kept as a thin compatibility veneer over
    {!Imtp_engine.Engine}: sketch instantiation → lowering → PIM-aware
    passes → verifier → simulated hardware timing, with optional
    deterministic measurement noise modelling run-to-run variation on
    the real machine.

    Calls share one interned engine per machine configuration, so
    repeated builds of the same candidate (grid searches, benchmark
    sweeps) are served from the engine's content-addressed cache.
    Callers that need artifacts, typed errors, batching or cache
    telemetry should use {!Imtp_engine.Engine} directly. *)

type result = {
  params : Imtp_engine.Sketch.params;
  stats : Imtp_upmem.Stats.t;
  latency_s : float;  (** noisy total latency — the tuning objective. *)
}

val noise_amplitude : float
(** Relative measurement noise (±2 %). *)

val build :
  ?passes:Imtp_passes.Pipeline.config ->
  ?skip_inputs:string list ->
  Imtp_upmem.Config.t ->
  Imtp_workload.Op.t ->
  Imtp_engine.Sketch.params ->
  (Imtp_tir.Program.t, string) Result.t
(** Lower and optimize a candidate; [Error] carries the rendered
    {!Imtp_engine.Engine.error} (lowering or verifier rejection). *)

val measure :
  ?rng:Imtp_engine.Rng.t ->
  ?passes:Imtp_passes.Pipeline.config ->
  ?skip_inputs:string list ->
  Imtp_upmem.Config.t ->
  Imtp_workload.Op.t ->
  Imtp_engine.Sketch.params ->
  (result, string) Result.t
(** [rng] adds ±2 % multiplicative noise to the latency; omit it for
    deterministic measurements (benchmarks, tests).  [skip_inputs]
    marks weight tensors resident in MRAM across launches (§5.4), so
    their H2D transfer is excluded. *)
