type t = { len : int; data : Bytes.t }

let byte_count len = (len + 7) / 8

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Bitstring.get: index out of range";
  let byte = Char.code (Bytes.get t.data (i / 8)) in
  byte land (1 lsl (i mod 8)) <> 0

let make_empty len = { len; data = Bytes.make (byte_count len) '\000' }

let set_bit data i =
  let b = Char.code (Bytes.get data (i / 8)) in
  Bytes.set data (i / 8) (Char.chr (b lor (1 lsl (i mod 8))))

let random rng k =
  assert (k >= 0);
  let data = Bytes.create (byte_count k) in
  Rng.fill_bools rng data k;
  { len = k; data }

let of_bools bools =
  let t = make_empty (List.length bools) in
  List.iteri (fun i b -> if b then set_bit t.data i) bools;
  t

let to_bools t = List.init t.len (get t)

let equal a b = a.len = b.len && Bytes.equal a.data b.data

let compare a b =
  let c = Int.compare a.len b.len in
  if c <> 0 then c else Bytes.compare a.data b.data

let ones t =
  let count = ref 0 in
  for i = 0 to t.len - 1 do
    if get t i then incr count
  done;
  !count

let to_string t = String.init t.len (fun i -> if get t i then '1' else '0')

let of_string s =
  let t = make_empty (String.length s) in
  String.iteri
    (fun i c ->
      match c with
      | '1' -> set_bit t.data i
      | '0' -> ()
      | _ -> invalid_arg "Bitstring.of_string: expected only '0'/'1'")
    s;
  t

let pp ppf t =
  let limit = 32 in
  if t.len <= limit then Format.pp_print_string ppf (to_string t)
  else
    Format.fprintf ppf "%s...(%d bits)"
      (String.init limit (fun i -> if get t i then '1' else '0'))
      t.len

type cursor = { src : t; mutable pos : int }

let cursor src = { src; pos = 0 }

let remaining c = c.src.len - c.pos

let position c = c.pos

let take_bit c =
  if c.pos >= c.src.len then invalid_arg "Bitstring.take_bit: exhausted";
  let b = get c.src c.pos in
  c.pos <- c.pos + 1;
  b

(* Bit [i] of [data], as 0 or 1, without a bounds check. *)
let bit_at data i = (Char.code (Bytes.unsafe_get data (i lsr 3)) lsr (i land 7)) land 1

(* Reserve [k] bits at the cursor: one bounds check, then the bits
   [\[pos, pos + k)] can be read unchecked. *)
let reserve c k name =
  let pos = c.pos in
  if k < 0 || k > c.src.len - pos then invalid_arg ("Bitstring." ^ name ^ ": exhausted");
  c.pos <- pos + k;
  pos

let take_int c k =
  assert (k >= 0 && k <= 30);
  let pos = reserve c k "take_int" in
  let data = c.src.data in
  let v = ref 0 in
  for i = pos to pos + k - 1 do
    v := (!v lsl 1) lor bit_at data i
  done;
  !v

let take_all_zero c k =
  (* Consume all [k] bits even after seeing a 1, so that nodes sharing a
     seed stay aligned on the same cursor position. *)
  let pos = reserve c k "take_all_zero" in
  let data = c.src.data in
  let i = ref pos in
  while !i < pos + k && bit_at data !i = 0 do
    incr i
  done;
  !i = pos + k
