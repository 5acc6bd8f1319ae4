(** The metrics registry: named counters, gauges and per-node histograms
    with labeled snapshots and a JSON artifact writer.

    A registry is a flat namespace of metrics created on first use
    ({!counter}, {!gauge} and {!histogram} are idempotent per name; the
    conventional names the stack itself uses are listed in
    [docs/OBSERVABILITY.md]).  Instrumented code holds the returned
    handle and updates it with no lookup on the hot path.

    Histograms come in two modes.  {!histogram} keeps raw samples, each
    optionally tagged with a node id, so one histogram serves both the
    aggregate distribution ({!summary}) and the per-node breakdown
    ({!by_node}) — e.g. ack latency overall and ack latency of the worst
    node.  {!bounded_histogram} streams samples into a constant-memory
    {!Stats.Quantile} estimator instead — the default for long-horizon
    runs, whose observation counts would make raw storage unbounded.

    {!snapshot} captures every metric's current value under a label;
    [Localcast.Lb_spec]'s monitor takes one per LBAlg phase.  {!write_json} dumps a
    snapshot list as a [BENCH_obs.json]-style artifact (same shape
    discipline as [BENCH_micro.json]: top-level [git_rev], trailing
    newline, fully escaped strings). *)

type t

val create : unit -> t

(** {1 Counters} *)

type counter

val counter : t -> string -> counter
(** The counter named so, created at 0 on first use.  Raises
    [Invalid_argument] if the name is already a gauge or histogram. *)

val incr : ?by:int -> counter -> unit
(** Add [by] (default 1). *)

val counter_value : counter -> int

(** {1 Gauges} *)

type gauge

val gauge : t -> string -> gauge
(** The gauge named so, created at 0 on first use. *)

val set : gauge -> float -> unit

val gauge_value : gauge -> float

(** {1 Histograms} *)

type histogram

val histogram : t -> string -> histogram
(** The raw histogram named so, created empty on first use: every sample
    is kept, so memory grows with the observation count but {!summary}
    percentiles are exact and {!by_node} breakdowns are available.
    Raises [Invalid_argument] if the name is registered as a
    {!bounded_histogram} (or as another metric kind). *)

val bounded_histogram :
  ?sub:int -> ?lo:float -> ?hi:float -> t -> string -> histogram
(** The bounded (streaming) histogram named so: samples are folded into
    a {!Stats.Quantile} log-histogram, so memory is fixed at creation no
    matter how many observations arrive — the mode long-horizon runs
    (the serving engine, soak scenarios) must use.  {!summary}'s
    [count]/[sum]/[min]/[max]/[mean] are exact; [p50]/[p90]/[p99] carry
    the estimator's bounded relative error ({!Stats.Quantile.error_bound},
    ≈ 2.2% at the default [sub]).  Node attribution is not retained:
    {!by_node} returns [[]].  The optional parameters are passed to
    {!Stats.Quantile.create} on first use.  Raises [Invalid_argument] if
    the name is registered as a raw histogram (or as another metric
    kind). *)

val observe : ?node:int -> histogram -> float -> unit
(** Record one sample, attributed to [node] when given (default: no
    attribution; the sample still counts toward the aggregate).  On a
    bounded histogram the sample is folded into the estimator ([node]
    is ignored) with no allocation. *)

type summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  mean : float;
  p50 : float;  (** nearest-rank percentiles over the raw samples *)
  p90 : float;
  p99 : float;
}

val summary : histogram -> summary option
(** Aggregate over all samples; [None] when empty. *)

val by_node : histogram -> (int * summary) list
(** Per-node summaries (nodes in increasing order), over the attributed
    samples only.  Always [[]] on a bounded histogram. *)

(** {1 Snapshots and artifacts} *)

type snapshot = {
  label : string;
  counters : (string * int) list;  (** in creation order *)
  gauges : (string * float) list;
  histograms : (string * summary option) list;
}

val snapshot : label:string -> t -> snapshot
(** Capture every registered metric's current value.  Counters and
    histograms accumulate over the run, so per-phase deltas are
    differences of consecutive snapshots. *)

val snapshot_to_json : snapshot -> string
(** One flat JSON object (no trailing newline). *)

val write_json : path:string -> ?git_rev:string -> snapshot list -> unit
(** Write [{"git_rev": ..., "snapshots": [...]}] to [path], one snapshot
    object per line of the array, newline-terminated — the
    [BENCH_obs.json] artifact format consumed by the docs' worked
    examples and validated in CI. *)
