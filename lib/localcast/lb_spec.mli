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

    A node is {e actively broadcasting} from the round of its [bcast]
    input through the round of its [ack] output, inclusive; the first
    clean reception of data from such a node in a phase is the phase's
    {e progress witness}.  This module is the only implementation of
    those two rules, of the ack deadlines and of the δ bound of the
    seed layer.

    The monitor is streaming: feed it each round record via {!observe}
    (e.g. as the engine's observer) and read the {!report} at the end —
    no trace needs to be retained.  Memory grows with the outstanding
    bcasts, not with the run's history: a bcast's receiver set is
    dropped at its ack.  Alongside the report it records each deadline
    miss and δ-bound breach as a {!violation} at the round it becomes
    detectable, and, given a sink, emits the protocol events of the run
    (see {!monitor}).

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

type kind =
  | Late_ack of { latency : int }
      (** acked after t_ack, before the bcast was flagged missing *)
  | Missing_ack of { bcast_round : int }
      (** unanswered with > t_ack rounds elapsed *)
  | Progress_miss of { phase : int }
      (** opportunity (fully-active reliable neighbor) without a
          qualifying reception *)
  | Delta_breach of { owners : int; bound : int }
      (** distinct committed seed owners in the closed G'-neighborhood
          above [params.delta_bound] *)

type violation = {
  kind : kind;
  node : int;  (** the vertex the obligation belonged to *)
  round : int;  (** the round at which the violation became detectable *)
  detail : string;  (** human-readable one-liner *)
}
(** One deadline miss or bound breach.  Each overdue bcast yields exactly
    one [Late_ack] or [Missing_ack]: a missing bcast acked later is not
    flagged again.  So the [Late_ack] plus [Missing_ack] count equals
    the report's [late_ack_count + missing_ack_count], and the
    [Progress_miss] count its [progress_failures].  Detection rounds:
    a late ack at its ack round; a missing ack at round [bcast + t_ack +
    1], or at the last round if the run ends first; a progress miss and
    a δ breach at the first round of the next phase, or at the last
    round if the run ends on the phase boundary.  A trailing partial
    phase carries no progress obligation. *)

type monitor

val monitor :
  ?faults:Faults.Plan.t ->
  ?sink:Obs.Sink.t ->
  ?metrics:Obs.Metrics.t ->
  dual:Dualgraph.Dual.t ->
  params:Params.t ->
  env:Lb_env.t ->
  unit ->
  monitor
(** [?faults] enables survivor-relative accounting (see above); it must
    be the same plan the engine runs under.  [env] is not consulted.

    [?sink] turns on protocol events: per record, in this order,
    [Phase_start] (on a phase's first round), one [Bcast] per bcast
    input, one [Progress] per progress witness, and one [Recv] / [Ack] /
    [Seed_commit] per node output.  Passed as the engine's observer
    alongside the same sink, these land inside the round's
    [Round_start] / [Round_end] bracket.

    [?metrics], used together with [?sink], maintains the conventional
    instruments (see the name table in [docs/OBSERVABILITY.md]):
    counters [lb.bcasts], [lb.acks], [lb.recvs], [lb.seed_commits], and
    [engine.transmits], [engine.deliveries], [engine.collisions] (fed by
    a consumer registered on the sink, so they count the engine's own
    events); histograms [lb.ack_latency] and [lb.progress_latency]
    (node-attributed), [lb.transmitters_per_round] and
    [seed.owners_per_neighborhood] (the δ occupancy of each closed
    G'-neighborhood, sampled once per phase); gauge [engine.rounds].  A
    labeled snapshot ([phase-0], [phase-1], …) is taken as each complete
    phase closes.  Neither option changes the report or the
    violations. *)

val observe :
  monitor ->
  (Messages.msg, Messages.lb_input, Messages.lb_output) Radiosim.Trace.round_record ->
  unit
(** Feed rounds in order, starting at round 0. *)

val finish : monitor -> report
(** Close the monitor and produce the report: outstanding bcasts are
    judged against the rounds that actually elapsed, and a trailing
    partial phase owes no progress.  Idempotent. *)

val violations : monitor -> violation list
(** The violations detected so far, in detection order; complete after
    {!finish}. *)

val snapshots : monitor -> Obs.Metrics.snapshot list
(** The per-phase metric snapshots taken so far, oldest first (empty
    without both [?sink] and [?metrics]).  Hand the list to
    {!Obs.Metrics.write_json} for the [BENCH_obs.json] artifact. *)
