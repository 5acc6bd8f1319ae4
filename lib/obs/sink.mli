(** The structured event sink: a bounded ring buffer plus streaming
    consumers.

    A sink is the single object instrumented code writes to.  It does two
    things per {!emit}:

    + stores the event in a fixed-capacity ring buffer (overwriting the
      oldest retained event once full — long runs keep a bounded recent
      window instead of growing without limit), and
    + hands the event synchronously to every registered {!on_event}
      consumer, so online analyses (metric counting, live filtering)
      see the {e complete} stream even when the ring has long since
      wrapped.

    The disabled state is represented by absence: instrumented code takes
    a [Sink.t option] and emits nothing when it is [None], so a disabled
    sink costs one branch per emission site — the engine's micro-bench
    regression budget for the whole layer is 2%.

    Sinks are not thread-safe; use one sink per domain (the experiment
    runner's domain-parallel trials each build their own). *)

type t

val create : ?capacity:int -> unit -> t
(** A fresh sink retaining the last [capacity] events (default 65536;
    must be ≥ 1).  Raises [Invalid_argument] on a non-positive
    capacity. *)

val capacity : t -> int

val emit : t -> Event.t -> unit
(** Append an event: store it in the ring (evicting the oldest if full)
    and call every registered consumer, in registration order. *)

val on_event : t -> (Event.t -> unit) -> unit
(** Register a streaming consumer.  Consumers run synchronously inside
    {!emit}, in registration order; they must not emit into the same
    sink. *)

val emitted : t -> int
(** Total events emitted over the sink's lifetime (≥ {!length}). *)

val length : t -> int
(** Events currently retained in the ring. *)

val dropped : t -> int
(** Events evicted by wraparound ([emitted - length]). *)

val get : t -> int -> Event.t
(** [get t i] is the [i]-th retained event, [0] being the oldest
    retained.  Raises [Invalid_argument] out of range. *)

val iter : t -> (Event.t -> unit) -> unit
(** Iterate the retained window, oldest first. *)

val fold : t -> init:'acc -> f:('acc -> Event.t -> 'acc) -> 'acc

val to_list : t -> Event.t list
(** The retained window, oldest first. *)

val clear : t -> unit
(** Forget all retained events and reset the counters.  Registered
    consumers stay. *)

(** {1 JSONL export / import}

    One event per line in emission order; schema in
    [docs/OBSERVABILITY.md].  Export covers the {e retained} window — to
    capture a complete run, size the capacity to the run (or attach a
    consumer that writes lines as they happen). *)

val write_jsonl : t -> out_channel -> unit
(** Write the retained window, one {!Event.to_json} line per event,
    oldest first, each line newline-terminated. *)

val save_jsonl : t -> path:string -> unit
(** {!write_jsonl} to a fresh file at [path]. *)

val read_jsonl : in_channel -> (Event.t list, string) result
(** Read events back, one per line, in order; blank lines are skipped.
    [Error] names the first offending line. *)

val load_jsonl : path:string -> (Event.t list, string) result
