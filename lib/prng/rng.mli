(** Convenience layer over {!Splitmix}: typed random draws.

    Every simulated entity (node, scheduler, environment, workload
    generator) holds its own [Rng.t], obtained by [split]ting a root
    generator.  This keeps executions reproducible and lets tests replay a
    single node's coin flips in isolation. *)

type t

val create : int64 -> t
(** Fresh generator from a 64-bit seed. *)

val of_int : int -> t
(** Fresh generator from an [int] seed. *)

val split : t -> t
(** Derive an independent generator (advances the parent). *)

val copy : t -> t
(** Duplicate the state (both produce the same stream afterwards). *)

val bits64 : t -> int64
(** 64 fresh pseudo-random bits. *)

val bool : t -> bool
(** A fair coin. *)

val skip : t -> int -> unit
(** [skip t k] discards the next [k] draws in O(1): afterwards [t] is
    where [k] calls to {!bool} (or {!bits64}) would leave it. *)

val fill_bools : t -> Bytes.t -> int -> unit
(** [fill_bools t buf k] draws [k] coins, the same ones [k] calls to
    {!bool} would give, and stores the [i]-th as bit [i mod 8] of byte
    [i / 8] of [buf] (1 for [true]).  Bits of the last byte past [k] are
    cleared.  Raises [Invalid_argument] unless [0 <= k <= 8 · length buf]. *)

val bits : t -> int -> int
(** [bits t k] is a uniform integer in [\[0, 2^k)], for [0 <= k <= 62]
    (the full non-negative range of a 64-bit-platform OCaml int). *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)].  Requires [n > 0]; any positive
    OCaml int (up to [max_int]) is accepted.  Uses rejection sampling,
    so the distribution is exactly uniform. *)

val int_in_range : t -> min:int -> max:int -> int
(** Uniform in the inclusive range [\[min, max\]].  Requires [min <= max]. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p] (clamped to [0,1]). *)

val geometric_trial : t -> int -> bool
(** [geometric_trial t b] flips [b] fair coins and returns [true] iff all
    landed zero — i.e. [true] with probability [2^-b].  This is the exact
    primitive LBAlg uses for its broadcast decision (step 3 of the body
    round), implemented with the same bit-consumption semantics. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
