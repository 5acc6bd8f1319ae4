(** Domain-parallel tiled execution of the synchronous engine.

    {!run} is the round kernel behind {!Engine.run} at more than one
    tile.  The field is partitioned into spatial tiles
    ({!Dualgraph.Tile}) and each round runs as SPMD phases over a
    persistent domain pool ({!Parallel.Pool}), with the calling domain
    doubling as tile 0's worker and as the coordinator for the serial
    spine (fault transitions, impure input polling, link activation,
    halo fold, events, [notify], observer and stop):

    + {b decide} — each tile polls inputs (when the environment is
      {!Env.pure_inputs}), steps its own nodes' [decide], and records
      its transmitters;
    + {b reception} — under the dual-graph model each tile's
      transmitters push along their reliable CSR slice and the round's
      active unreliable adjacency; receptions for foreign listeners go
      to a per-(source, destination) tile outbox, which the coordinator
      then folds into the owner's accumulator (the {e halo
      exchange}).  Under {!Reception.Sinr} each tile instead scans its
      slot range of the field's column-major listener CSR, over the
      round's active columns only ({!Sinr.scan_slots}, {!Sinr.verdict});
    + {b absorb} — each tile computes its own nodes' delivery results
      and steps [absorb].

    {b Determinism.}  The produced trace — round records, event
    stream, metrics — is the same under {e any} tile count.  A
    listener's outcome is a commutative fold of the transmissions
    reaching it (0 → silence, 1 → the message, ≥2 → collision), so
    push order cannot change it; SINR sums are accumulated in an order
    fixed by the grid columns, never by the tiling; and every
    trace-visible serialization is produced by the coordinator in
    ascending node order.  DESIGN.md §10 gives the full argument.

    {b Requirements.}  Above one tile, node processes must be
    {e node-independent}: [decide]/[absorb] closures may touch only
    their own node's state (true of every process in this repository —
    each draws from its own RNG).  Environments are consulted from
    worker domains only when they declare {!Env.pure_inputs}. *)

val default_tiles : unit -> int
(** [1 + Parallel.Budget.suggested_extra ()] — the tile count {!run}
    uses when [?tiles] is omitted: one tile per domain the machine can
    still absorb.  1 on a single-core host or when the budget is
    already consumed (e.g. inside a [trials_par] worker). *)

val run :
  ?observer:(('msg, 'input, 'output) Trace.round_record -> unit) ->
  ?stop:(('msg, 'input, 'output) Trace.round_record -> bool) ->
  ?sink:Obs.Sink.t ->
  ?metrics:Obs.Metrics.t ->
  ?faults:Faults.Plan.t ->
  ?revive:(node:int -> round:int -> ('msg, 'input, 'output) Process.node) ->
  ?tiles:int ->
  ?reception:Reception.t ->
  dual:Dualgraph.Dual.t ->
  scheduler:Scheduler.t ->
  nodes:('msg, 'input, 'output) Process.node array ->
  env:('input, 'output) Env.t ->
  rounds:int ->
  unit ->
  int
(** Like {!Engine.run}, executed over [tiles] tiles on as many domains
    (default {!default_tiles}; values are clamped to the vertex
    count).  [tiles = 1] is exactly {!Engine.run}.  Returns the number
    of rounds executed.

    An exception raised by a process on any worker domain is
    re-raised here with its backtrace after the in-flight phase
    barrier completes, and the pool is torn down.

    @raise Invalid_argument on the same conditions as {!Engine.run},
    or if [tiles < 1]. *)
