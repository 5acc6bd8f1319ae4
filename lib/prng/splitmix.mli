(** SplitMix64: a fast, splittable, deterministic pseudo-random generator.

    This is the generator of Steele, Lea and Flood ("Fast splittable
    pseudorandom number generators", OOPSLA 2014), implemented from scratch.
    It is the randomness substrate for every simulation in this repository:
    both the algorithms' coin flips and the generation of topologies and
    link schedules.  Determinism matters here — an execution is a pure
    function of (configuration, seed), which is exactly the paper's notion
    of fixing a configuration and then considering the induced execution
    tree.

    The state is a single [int64].  [next] advances the state and produces
    64 pseudo-random bits; [split] derives an independent stream, which we
    use to give every node, the scheduler and the environment their own
    generators without cross-contamination. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] makes a fresh generator from a 64-bit seed. *)

val of_int : int -> t
(** [of_int seed] is [create (Int64.of_int seed)]. *)

val next : t -> int64
(** [next t] advances [t] and returns 64 fresh pseudo-random bits. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose output
    stream is (statistically) independent of the remainder of [t]'s. *)

val copy : t -> t
(** [copy t] duplicates the current state; both copies then produce the
    same stream.  Used by tests to check determinism. *)

val advance : t -> int -> unit
(** [advance t k] moves [t] past its next [k] outputs in O(1), leaving it
    exactly where [k] calls to {!next} would.  SplitMix is a counter
    generator: each output adds the fixed odd gamma to the state.
    Raises [Invalid_argument] if [k < 0]. *)

val fill_low_bits : t -> Bytes.t -> int -> unit
(** [fill_low_bits t buf k] draws [k] outputs and stores the low bit of
    the [i]-th one as bit [i mod 8] of byte [i / 8] of [buf], leaving [t]
    where [k] calls to {!next} would.  Bits of the last byte past [k] are
    cleared.  Raises [Invalid_argument] unless [0 <= k <= 8 · length buf]. *)

val mix : int64 -> int64
(** [mix z] is the 64-bit finalizer (mix function) used internally;
    exposed for hashing embedding coordinates into scheduler decisions. *)
