type t = Splitmix.t

let create = Splitmix.create
let of_int = Splitmix.of_int
let split = Splitmix.split
let copy = Splitmix.copy
let bits64 = Splitmix.next

let bool t = Int64.logand (Splitmix.next t) 1L = 1L

let skip = Splitmix.advance
let fill_bools = Splitmix.fill_low_bits

let bits t k =
  (* 62 is the widest width whose values are all non-negative OCaml ints
     on 64-bit platforms (an int has 63 value bits including the sign). *)
  assert (k >= 0 && k <= 62);
  if k = 0 then 0
  else Int64.to_int (Int64.shift_right_logical (Splitmix.next t) (64 - k))

let int t n =
  assert (n > 0);
  if n = 1 then 0
  else begin
    (* Rejection sampling on the smallest power-of-two envelope of [n].
       The envelope is capped at 62 bits, which covers every positive
       OCaml int (max_int = 2^62 - 1); [1 lsl k] must not be evaluated
       at k = 62, where it would overflow to min_int. *)
    let k =
      let rec width k = if k >= 62 || 1 lsl k >= n then k else width (k + 1) in
      width 1
    in
    let rec draw () =
      let v = bits t k in
      if v < n then v else draw ()
    in
    draw ()
  end

let int_in_range t ~min ~max =
  assert (min <= max);
  min + int t (max - min + 1)

let float t x =
  (* 53 random bits scaled into [0, 1), then into [0, x). *)
  let v = Int64.to_float (Int64.shift_right_logical (Splitmix.next t) 11) in
  x *. (v /. 9007199254740992.0)

let bernoulli t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t 1.0 < p

let geometric_trial t b =
  assert (b >= 0);
  let rec go remaining =
    if remaining = 0 then true
    else if bool t then false
    else go (remaining - 1)
  in
  go b

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))
