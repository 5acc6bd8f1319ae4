(** Checker for the LB(t_ack, t_prog, ε) specification (paper §4.1).

    Deterministic conditions, enforced on every execution:

    - {e Timely Acknowledgement}: each [bcast(m)_u] is answered by exactly
      one [ack(m)_u] within [t_ack] rounds;
    - {e Validity}: a [recv(m)_u] happens only while some [v ∈ N_{G'}(u)]
      is actively broadcasting [m].

    Probabilistic conditions, whose empirical frequency the checker
    reports so trials can estimate the error probability:

    - {e Reliability}: for each bcast, every reliable neighbor of the
      sender emits [recv(m)] no later than the sender's [ack(m)];
    - {e Progress}: partitioning rounds into phases of [t_prog], for each
      (receiver, phase) pair in which some reliable neighbor is actively
      broadcasting throughout the {e entire} phase, the receiver cleanly
      receives at least one data message from an actively-broadcasting
      node during the phase.

    The monitor is streaming: feed it each round record via {!observe}
    (e.g. as the engine's observer) and read the {!report} at the end —
    no trace needs to be retained.

    {e Churn.}  With a [?faults] plan attached, every claim becomes
    survivor-relative — scoped to nodes alive for the full obligation
    window ([docs/FAULTS.md] spells the windows out): timely
    acknowledgement and missing-ack verdicts exempt senders that were
    down inside [\[bcast, bcast + t_ack\]]; reliability is owed only to
    reliable neighbors alive through [\[bcast, ack\]]; a progress
    opportunity requires both the receiver and some fully-active
    reliable neighbor alive through the entire phase.  Without a plan,
    behavior is unchanged. *)

type report = {
  rounds_observed : int;
  validity_violations : int;  (** recv outputs with no active G'-source *)
  ack_count : int;
  late_ack_count : int;  (** acks later than t_ack after their bcast *)
  missing_ack_count : int;
      (** bcasts still unanswered at the end, despite ≥ t_ack elapsed
          rounds *)
  max_ack_latency : int;  (** largest observed ack latency, in rounds *)
  reliability_attempts : int;  (** acked bcasts *)
  reliability_failures : int;
      (** acked bcasts missed by some reliable neighbor *)
  progress_opportunities : int;
      (** (receiver, phase) pairs with a reliable neighbor active
          throughout the phase *)
  progress_failures : int;  (** opportunities with no qualifying reception *)
  progress_latencies : int array;
      (** for each successful opportunity, the offset (in rounds, from the
          phase start) of the first qualifying reception — the raw data
          behind the latency percentiles in experiment E5 *)
}

val reliability_rate : report -> float
(** Empirical success frequency (1.0 when there were no attempts). *)

val progress_rate : report -> float

type monitor

val monitor :
  ?faults:Faults.Plan.t ->
  dual:Dualgraph.Dual.t ->
  params:Params.t ->
  env:Lb_env.t ->
  unit ->
  monitor
(** [?faults] enables survivor-relative accounting (see above); it must
    be the same plan the engine runs under. *)

val observe :
  monitor ->
  (Messages.msg, Messages.lb_input, Messages.lb_output) Radiosim.Trace.round_record ->
  unit
(** Feed rounds in order, starting at round 0. *)

val finish : monitor -> report
(** Close the monitor (completes any partially observed phase) and
    produce the report.  Idempotent. *)

val check_trace :
  ?faults:Faults.Plan.t ->
  dual:Dualgraph.Dual.t ->
  params:Params.t ->
  env:Lb_env.t ->
  (Messages.msg, Messages.lb_input, Messages.lb_output) Radiosim.Trace.t ->
  report
(** Convenience: run a monitor over a recorded trace. *)
