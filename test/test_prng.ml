(* Unit and property tests for the prng library: SplitMix64 streams, the
   typed Rng layer, and seed bitstrings with cursors. *)

open Core

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

module Sm = Prng.Splitmix
module Rng = Prng.Rng
module Bits = Prng.Bitstring

(* --- Splitmix --- *)

let test_determinism () =
  let a = Sm.of_int 12345 and b = Sm.of_int 12345 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Sm.next a) (Sm.next b)
  done

let test_copy () =
  let a = Sm.of_int 7 in
  let _ = Sm.next a in
  let b = Sm.copy a in
  check Alcotest.int64 "copy continues identically" (Sm.next a) (Sm.next b)

let test_seeds_differ () =
  let a = Sm.of_int 1 and b = Sm.of_int 2 in
  checkb "different seeds diverge" true (Sm.next a <> Sm.next b)

let test_split_diverges () =
  let parent = Sm.of_int 99 in
  let child = Sm.split parent in
  let xs = List.init 20 (fun _ -> Sm.next parent) in
  let ys = List.init 20 (fun _ -> Sm.next child) in
  checkb "split stream differs from parent's continuation" true (xs <> ys)

let test_mix_nonzero () =
  (* mix is a bijection with fixed point 0 — the generator never sits at
     state 0 because the golden gamma is added before mixing. *)
  check Alcotest.int64 "mix fixes zero" 0L (Sm.mix 0L);
  checkb "mix avalanches one" true (Sm.mix 1L <> 1L);
  checkb "mix injective-ish" true (Sm.mix 1L <> Sm.mix 2L)

(* --- Rng draws --- *)

let test_bool_fair () =
  let rng = Rng.of_int 11 in
  let heads = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Rng.bool rng then incr heads
  done;
  let rate = float_of_int !heads /. float_of_int n in
  checkb "fair coin within 3 sigma" true (Float.abs (rate -. 0.5) < 0.015)

let test_bits_range () =
  let rng = Rng.of_int 5 in
  checki "bits 0" 0 (Rng.bits rng 0);
  for _ = 1 to 1000 do
    let v = Rng.bits rng 7 in
    checkb "bits 7 in range" true (v >= 0 && v < 128)
  done

let test_int_bounds () =
  let rng = Rng.of_int 3 in
  List.iter
    (fun n ->
      for _ = 1 to 200 do
        let v = Rng.int rng n in
        checkb "int in range" true (v >= 0 && v < n)
      done)
    [ 1; 2; 3; 7; 10; 100; 1000 ]

let test_int_covers_support () =
  let rng = Rng.of_int 17 in
  let hits = Array.make 5 0 in
  for _ = 1 to 2000 do
    hits.(Rng.int rng 5) <- hits.(Rng.int rng 5) + 1
  done;
  Array.iteri (fun i c -> checkb (Printf.sprintf "value %d drawn" i) true (c > 0)) hits

let test_int_large_bounds () =
  (* Regression: bounds above 2^30 used to trip the bits-width assert.
     The envelope now covers any positive OCaml int (up to 62 bits). *)
  let rng = Rng.of_int 61 in
  List.iter
    (fun n ->
      for _ = 1 to 200 do
        let v = Rng.int rng n in
        checkb (Printf.sprintf "int %d in range" n) true (v >= 0 && v < n)
      done)
    [ (1 lsl 30) + 1; 1 lsl 40; (1 lsl 61) + 7; max_int ];
  (* A draw above 2^31 is actually reachable, i.e. high bits are live. *)
  let seen_high = ref false in
  for _ = 1 to 1000 do
    if Rng.int rng max_int > 1 lsl 31 then seen_high := true
  done;
  checkb "draws exceed 2^31" true !seen_high

let test_int_in_range () =
  let rng = Rng.of_int 23 in
  for _ = 1 to 500 do
    let v = Rng.int_in_range rng ~min:(-5) ~max:5 in
    checkb "in inclusive range" true (v >= -5 && v <= 5)
  done;
  checki "degenerate range" 4 (Rng.int_in_range rng ~min:4 ~max:4)

let test_float_range () =
  let rng = Rng.of_int 29 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    checkb "float in [0, 2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_float_mean () =
  let rng = Rng.of_int 31 in
  let n = 20_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Rng.float rng 1.0
  done;
  let mean = !total /. float_of_int n in
  checkb "uniform mean near 1/2" true (Float.abs (mean -. 0.5) < 0.01)

let test_bernoulli_edges () =
  let rng = Rng.of_int 37 in
  checkb "p=0 never" false (Rng.bernoulli rng 0.0);
  checkb "p=1 always" true (Rng.bernoulli rng 1.0);
  checkb "p<0 never" false (Rng.bernoulli rng (-0.3));
  checkb "p>1 always" true (Rng.bernoulli rng 1.7)

let test_bernoulli_rate () =
  let rng = Rng.of_int 41 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  checkb "bernoulli(0.3) rate" true (Float.abs (rate -. 0.3) < 0.015)

let test_geometric_trial () =
  let rng = Rng.of_int 43 in
  checkb "b=0 always succeeds" true (Rng.geometric_trial rng 0);
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Rng.geometric_trial rng 1 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  checkb "b=1 rate 1/2" true (Float.abs (rate -. 0.5) < 0.015);
  let hits3 = ref 0 in
  for _ = 1 to n do
    if Rng.geometric_trial rng 3 then incr hits3
  done;
  let rate3 = float_of_int !hits3 /. float_of_int n in
  checkb "b=3 rate 1/8" true (Float.abs (rate3 -. 0.125) < 0.01)

let test_shuffle_permutes () =
  let rng = Rng.of_int 47 in
  let a = Array.init 20 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  check (Alcotest.array Alcotest.int) "multiset preserved" (Array.init 20 Fun.id) sorted

let test_pick_member () =
  let rng = Rng.of_int 53 in
  let a = [| 3; 1; 4; 1; 5 |] in
  for _ = 1 to 100 do
    let v = Rng.pick rng a in
    checkb "picked element is a member" true (Array.exists (( = ) v) a)
  done

(* --- Bitstring --- *)

let test_bits_of_bools_roundtrip () =
  let bools = [ true; false; false; true; true; false ] in
  check (Alcotest.list Alcotest.bool) "roundtrip" bools
    (Bits.to_bools (Bits.of_bools bools))

let test_bits_of_string () =
  let s = "011010001" in
  check Alcotest.string "string roundtrip" s (Bits.to_string (Bits.of_string s));
  Alcotest.check_raises "bad char" (Invalid_argument
    "Bitstring.of_string: expected only '0'/'1'") (fun () ->
      ignore (Bits.of_string "01x"))

let test_bits_get_bounds () =
  let b = Bits.of_string "101" in
  checkb "get 0" true (Bits.get b 0);
  checkb "get 1" false (Bits.get b 1);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Bitstring.get: index out of range") (fun () ->
      ignore (Bits.get b 3))

let test_bits_ones () =
  checki "ones" 4 (Bits.ones (Bits.of_string "1011001"));
  checki "ones empty" 0 (Bits.ones (Bits.of_string ""))

let test_bits_equal_compare () =
  let a = Bits.of_string "1010" and b = Bits.of_string "1010" in
  checkb "equal" true (Bits.equal a b);
  checki "compare equal" 0 (Bits.compare a b);
  checkb "length distinguishes" false (Bits.equal a (Bits.of_string "10100"))

let test_bits_random_length_balance () =
  let rng = Rng.of_int 59 in
  let b = Bits.random rng 10_000 in
  checki "length" 10_000 (Bits.length b);
  let rate = float_of_int (Bits.ones b) /. 10_000.0 in
  checkb "random seed is balanced" true (Float.abs (rate -. 0.5) < 0.02)

let test_cursor_sequential () =
  let b = Bits.of_string "1101001" in
  let c = Bits.cursor b in
  checki "initial remaining" 7 (Bits.remaining c);
  let read = List.init 7 (fun _ -> Bits.take_bit c) in
  check (Alcotest.list Alcotest.bool) "bits in order" (Bits.to_bools b) read;
  checki "exhausted" 0 (Bits.remaining c);
  Alcotest.check_raises "take past end"
    (Invalid_argument "Bitstring.take_bit: exhausted") (fun () ->
      ignore (Bits.take_bit c))

let test_cursor_take_int () =
  let c = Bits.cursor (Bits.of_string "10110") in
  checki "msb-first 101 = 5" 5 (Bits.take_int c 3);
  checki "next 10 = 2" 2 (Bits.take_int c 2);
  checki "position" 5 (Bits.position c)

let test_cursor_take_all_zero () =
  let c = Bits.cursor (Bits.of_string "000100") in
  checkb "three zeros" true (Bits.take_all_zero c 3);
  (* Consumes all bits even after a 1: cursor alignment property. *)
  checkb "has a one" false (Bits.take_all_zero c 3);
  checki "all consumed" 0 (Bits.remaining c)

(* --- frozen oracles for the bulk seed path --- *)

(* Verbatim copy of the per-bit loop [Bitstring.random] ran before seeds
   were drawn in bulk: one [Rng.bool] per bit, bit [i] stored as bit
   [i mod 8] of byte [i / 8]. *)
let random_per_bit rng k =
  let data = Bytes.make ((k + 7) / 8) '\000' in
  let set_bit data i =
    let b = Char.code (Bytes.get data (i / 8)) in
    Bytes.set data (i / 8) (Char.chr (b lor (1 lsl (i mod 8))))
  in
  for i = 0 to k - 1 do
    if Rng.bool rng then set_bit data i
  done;
  data

(* The per-bit reads [take_int] and [take_all_zero] used to make. *)
let take_int_per_bit c k =
  let v = ref 0 in
  for _ = 1 to k do
    v := (!v lsl 1) lor if Bits.take_bit c then 1 else 0
  done;
  !v

let take_all_zero_per_bit c k =
  let all_zero = ref true in
  for _ = 1 to k do
    if Bits.take_bit c then all_zero := false
  done;
  !all_zero

let bytes_bits data k =
  String.init k (fun i ->
      if Char.code (Bytes.get data (i / 8)) land (1 lsl (i mod 8)) <> 0 then '1'
      else '0')

(* Lengths for the seed properties: 0, short ones straddling byte
   boundaries, and seed-sized ones. *)
let seed_length =
  QCheck.frequency
    [ (1, QCheck.always 0); (4, QCheck.int_bound 40); (2, QCheck.int_bound 12_000) ]

let same_stream a b =
  List.for_all (fun _ -> Int64.equal (Rng.bits64 a) (Rng.bits64 b)) [ 1; 2; 3 ]

let oracle_cases =
  let open QCheck in
  [
    Test.make ~name:"bulk Bitstring.random = per-bit Rng.bool loop" ~count:300
      (pair int seed_length)
      (fun (seed, k) ->
        let bulk = Rng.of_int seed and oracle = Rng.of_int seed in
        let b = Bits.random bulk k in
        let expected = random_per_bit oracle k in
        Bits.length b = k
        && String.equal (Bits.to_string b) (bytes_bits expected k)
        && same_stream bulk oracle);
    Test.make ~name:"Rng.fill_bools writes the per-bit loop's bytes" ~count:300
      (pair int seed_length)
      (fun (seed, k) ->
        let bulk = Rng.of_int seed and oracle = Rng.of_int seed in
        (* Pre-filled with ones: padding bits past [k] must be cleared. *)
        let data = Bytes.make ((k + 7) / 8) '\255' in
        Rng.fill_bools bulk data k;
        Bytes.equal data (random_per_bit oracle k) && same_stream bulk oracle);
    Test.make ~name:"Rng.skip k = k draws" ~count:300
      (pair int seed_length)
      (fun (seed, k) ->
        let skipped = Rng.of_int seed and drawn = Rng.of_int seed in
        Rng.skip skipped k;
        for _ = 1 to k do
          ignore (Rng.bool drawn)
        done;
        same_stream skipped drawn);
    Test.make ~name:"Splitmix.advance k = k calls to next" ~count:300
      (pair int64 (int_bound 5_000))
      (fun (seed, k) ->
        let a = Sm.create seed and b = Sm.create seed in
        Sm.advance a k;
        for _ = 1 to k do
          ignore (Sm.next b)
        done;
        Int64.equal (Sm.next a) (Sm.next b));
    Test.make ~name:"take_int / take_all_zero = sequences of take_bit"
      ~count:300
      (triple int seed_length (small_list (pair bool (int_bound 30))))
      (fun (seed, k, ops) ->
        let b = Bits.random (Rng.of_int seed) k in
        let fast = Bits.cursor b and slow = Bits.cursor b in
        List.for_all
          (fun (as_int, w) ->
            if w > Bits.remaining slow then begin
              (* Both refuse a read past the end. *)
              (try
                 ignore
                   (if as_int then Bits.take_int fast w
                    else Bool.to_int (Bits.take_all_zero fast w));
                 false
               with Invalid_argument _ -> true)
              && Bits.position fast = Bits.position slow
            end
            else
              (if as_int then Bits.take_int fast w = take_int_per_bit slow w
               else Bits.take_all_zero fast w = take_all_zero_per_bit slow w)
              && Bits.position fast = Bits.position slow)
          ops);
  ]

(* --- qcheck properties --- *)

let qcheck_cases =
  let open QCheck in
  [
    Test.make ~name:"bitstring bools roundtrip" ~count:200
      (small_list bool)
      (fun bools -> Bits.to_bools (Bits.of_bools bools) = bools);
    Test.make ~name:"bitstring string roundtrip" ~count:200
      (string_of_size Gen.small_nat)
      (fun s ->
        let s01 =
          String.map (fun ch -> if Char.code ch land 1 = 0 then '0' else '1') s
        in
        Bits.to_string (Bits.of_string s01) = s01);
    Test.make ~name:"take_int stays below 2^k" ~count:200
      (pair (int_bound 12) small_int)
      (fun (k, seed) ->
        let rng = Rng.of_int seed in
        let b = Bits.random rng (max 1 k) in
        let c = Bits.cursor b in
        let v = Bits.take_int c (Bits.length b) in
        v >= 0 && v < 1 lsl Bits.length b);
    Test.make ~name:"rng int below bound" ~count:500
      (pair (int_range 1 10_000) small_int)
      (fun (n, seed) ->
        let rng = Rng.of_int seed in
        let v = Rng.int rng n in
        v >= 0 && v < n);
    Test.make ~name:"shuffle preserves multiset" ~count:200
      (pair (small_list small_int) small_int)
      (fun (l, seed) ->
        let rng = Rng.of_int seed in
        let a = Array.of_list l in
        Rng.shuffle rng a;
        List.sort compare (Array.to_list a) = List.sort compare l);
  ]

let suite =
  List.map (fun (name, f) -> Alcotest.test_case name `Quick f)
    [
      ("splitmix determinism", test_determinism);
      ("splitmix copy", test_copy);
      ("splitmix seeds differ", test_seeds_differ);
      ("splitmix split diverges", test_split_diverges);
      ("splitmix mix nonzero", test_mix_nonzero);
      ("rng bool fair", test_bool_fair);
      ("rng bits range", test_bits_range);
      ("rng int bounds", test_int_bounds);
      ("rng int covers support", test_int_covers_support);
      ("rng int large bounds", test_int_large_bounds);
      ("rng int_in_range", test_int_in_range);
      ("rng float range", test_float_range);
      ("rng float mean", test_float_mean);
      ("rng bernoulli edges", test_bernoulli_edges);
      ("rng bernoulli rate", test_bernoulli_rate);
      ("rng geometric trial", test_geometric_trial);
      ("rng shuffle permutes", test_shuffle_permutes);
      ("rng pick member", test_pick_member);
      ("bitstring bools roundtrip", test_bits_of_bools_roundtrip);
      ("bitstring string io", test_bits_of_string);
      ("bitstring get bounds", test_bits_get_bounds);
      ("bitstring ones", test_bits_ones);
      ("bitstring equal/compare", test_bits_equal_compare);
      ("bitstring random balance", test_bits_random_length_balance);
      ("cursor sequential", test_cursor_sequential);
      ("cursor take_int", test_cursor_take_int);
      ("cursor take_all_zero", test_cursor_take_all_zero);
    ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_cases
  @ List.map QCheck_alcotest.to_alcotest oracle_cases
