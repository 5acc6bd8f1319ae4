type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

(* The standard SplitMix64 finalizer: xor-shift multiply chains that give
   good avalanche behaviour on the raw counter.  Inlined so that
   [fill_low_bits]'s loop keeps its int64s unboxed. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* A second finalizer (MurmurHash3 constants) used to derive split streams. *)
let mix_gamma z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xFF51AFD7ED558CCDL in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xC4CEB9FE1A85EC53L in
  let z = Int64.logxor z (Int64.shift_right_logical z 33) in
  (* Gammas must be odd; this also keeps them well distributed. *)
  Int64.logor z 1L

let create seed = { state = seed }

let of_int seed = create (Int64.of_int seed)

let next t =
  let s = Int64.add t.state golden_gamma in
  t.state <- s;
  mix s

let split t =
  let s1 = next t in
  let s2 = next t in
  { state = Int64.logxor (mix s1) (mix_gamma s2) }

let copy t = { state = t.state }

(* The state is a counter: [k] calls to [next] add [k·γ] mod 2^64. *)
let advance t k =
  if k < 0 then invalid_arg "Splitmix.advance: negative count";
  t.state <- Int64.add t.state (Int64.mul (Int64.of_int k) golden_gamma)

(* Bit [i] of [buf] (bit [i mod 8] of byte [i / 8]) is the low bit of the
   [i]-th output.  Each byte is assembled in an int from eight outputs of
   an unboxed local counter, so the loop allocates nothing. *)
let fill_low_bits t buf k =
  if k < 0 || k > 8 * Bytes.length buf then
    invalid_arg "Splitmix.fill_low_bits: count out of range";
  let s = ref t.state in
  for byte = 0 to ((k + 7) / 8) - 1 do
    let acc = ref 0 in
    for j = 0 to min 8 (k - (8 * byte)) - 1 do
      s := Int64.add !s golden_gamma;
      acc := !acc lor ((Int64.to_int (mix !s) land 1) lsl j)
    done;
    Bytes.unsafe_set buf byte (Char.unsafe_chr !acc)
  done;
  t.state <- !s
