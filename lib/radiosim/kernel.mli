(** The round kernel behind {!Engine} and {!Tiled}: the one
    implementation of the dual-graph round's semantics — phase order,
    fault timing, jam accounting, reception and event order.  Not meant
    to be called directly; use {!Engine.run}, {!Engine.run_adaptive} or
    {!Tiled.run}. *)

type activation = {
  fill : round:int -> transmitting:bool array -> int array -> int;
      (** writes the round's active unreliable-edge indices, ascending,
          into the buffer and returns their count; [transmitting] is the
          on-air vector (an oblivious scheduler ignores it) *)
  resolved : int -> int;
      (** per-edge resolutions the fill performed for a given count —
          feeds [scheduler.edges_resolved] *)
}

val oblivious : Scheduler.t -> m:int -> activation
(** Activation by an oblivious scheduler over [m] unreliable edges. *)

val run :
  name:string ->
  tiles:int ->
  activation:activation ->
  ?observer:(('msg, 'input, 'output) Trace.round_record -> unit) ->
  ?stop:(('msg, 'input, 'output) Trace.round_record -> bool) ->
  ?sink:Obs.Sink.t ->
  ?metrics:Obs.Metrics.t ->
  ?faults:Faults.Plan.t ->
  ?revive:(node:int -> round:int -> ('msg, 'input, 'output) Process.node) ->
  reception:Reception.t ->
  dual:Dualgraph.Dual.t ->
  nodes:('msg, 'input, 'output) Process.node array ->
  env:('input, 'output) Env.t ->
  rounds:int ->
  unit ->
  int
(** Runs the rounds as SPMD phases over [tiles] spatial tiles (clamped
    to the vertex count) — decide, reception (push, or the SINR scan),
    absorb — with the serial spine, halo fold and events on the calling
    domain.  At one tile no domain is spawned and nodes are stepped in
    ascending id order.  [name] prefixes [Invalid_argument] messages. *)
