(** The search's learned cost model: one online ridge regressor over
    two feature maps (§4's "evolutionary search guided by a cost
    model", in the style of Adams et al. 2019: cheap static features
    plus an online-trained regressor ranking candidates before
    measurement).

    {!features} walks the {e lowered, pass-optimized} TIR of an
    {!Imtp_engine.Engine.prepared} candidate — loop extents and
    nesting depth, DPU/tasklet grid, analytic DMA traffic
    ({!Imtp_tir.Cost.dma_estimate}), WRAM footprint, transfer-mode mix,
    rfactor structure — so it sees exactly the program the simulator
    would time, including everything the PIM-aware passes changed.  A
    model over these features ({!create}) gates which candidates reach
    the simulator.

    {!schedule_features} reads the sketch parameters alone, so it can
    score a mutant before anything is lowered.  A model over these
    features ({!create_schedule}) picks the best of each proposal's
    mutants; ranking them by TIR features would mean preparing every
    mutant.

    Determinism contract: feature extraction is a pure function of the
    program (bit-identical for cache-hit and fresh-built candidates),
    training is a pure fold over the measured-trial history, and
    {!rank} breaks ties by proposal order — so a model-gated search
    remains a pure function of (trial history, seed), preserving
    [batch ~jobs:n] equivalence and replayability. *)

val dim : int
(** Fixed feature-vector width. *)

val feature_names : string array
(** Stable names, index-aligned with {!features} ([Array.length] =
    {!dim}). *)

val features : Imtp_tir.Program.t -> float array
(** Extract the feature vector from a lowered program in one analytic
    walk (evaluation cost independent of tensor sizes).  Every
    component is finite for any program: unresolvable loop extents
    count as 1 and all magnitudes pass through [log2 (1 + x)]. *)

val schedule_features :
  Imtp_workload.Op.t -> Imtp_engine.Sketch.params -> float array
(** The 11 schedule-parameter features of one candidate: log-scaled
    sketch parameters and workload shape terms. *)

type t
(** Online ridge regression predicting log-latency, refit lazily from
    the accumulated normal equations — an [observe] invalidates the
    cached weights and the next [predict] refits, so refitting once per
    search generation costs one small solve.  A model claims to be
    {!trained} after 8 observations. *)

val create : ?lambda:float -> unit -> t
(** A model over {!features} ({!dim} wide) that keeps the holdout
    error described at {!observe}.  [lambda] (default 1e-2) is the
    ridge regularizer. *)

val create_schedule : ?lambda:float -> unit -> t
(** A model over {!schedule_features}.  It keeps no holdout error, so
    an {!observe} never refits it. *)

val copy : t -> t
(** A deep snapshot: later {!observe} calls on either model leave the
    other untouched.  Search checkpoints capture the model this way. *)

val observe : t -> float array -> float -> unit
(** [observe m x latency_s] adds a training sample.  When a {!create}d
    model is already trained, the sample's holdout residual (absolute
    log-latency error under the pre-update weights) feeds the running
    error mean ({!mean_abs_log_err}) and the
    [cost_learn.mean_abs_log_err] observability gauge. *)

val trained : t -> bool
val sample_count : t -> int

val predict_log : t -> float array -> float
(** Predicted log-latency; [infinity] until trained. *)

val predict : t -> float array -> float
(** Predicted latency in seconds ([exp] of {!predict_log}). *)

val mean_abs_log_err : t -> float option
(** Running mean absolute log-latency prediction error over all
    holdout residuals seen so far ([None] before the first one, and
    always for a {!create_schedule}d model). *)

val select_count : ratio:float -> int -> int
(** How many of [n] ranked candidates a gate at [ratio] forwards to the
    simulator: [max 1 (ceil (ratio * n))], 0 only when [n = 0]. *)

val rank : t -> float array list -> int list * float array
(** [rank m xs] is the indices of [xs] in ascending predicted-cost
    order, with the predicted latencies ({!predict}, index-aligned with
    [xs]) they were ordered by.  The order is stable under ties (and
    under an untrained model, which predicts uniformly), so ranking is
    deterministic given the trial history. *)
