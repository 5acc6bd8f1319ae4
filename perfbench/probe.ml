(* Host-side measurement primitives: a monotonic nanosecond clock, GC
   counters summed over every domain, the peak resident set, the host's
   current slowdown, the trace digest the scale workloads compare across
   tile counts, and the reception counts and scheduler replay of the
   traced runs. *)

(* [Monotonic_clock.now] is a noalloc unboxed external, so reading it
   inside a wrapped callback allocates nothing. *)
let[@inline] now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Current domain's minor allocation, in words.  Unboxed external: no
   allocation when converted straight to an int. *)
let[@inline] minor_words_here () = int_of_float (Gc.minor_words ())

type gc = {
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

(* [Gc.quick_stat] folds in the counters of domains that have already
   terminated, so a tiled run's worker allocations are included once the
   run has joined its pool. *)
let gc () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    promoted_words = s.Gc.promoted_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
  }

let gc_diff a b =
  {
    minor_words = b.minor_words -. a.minor_words;
    promoted_words = b.promoted_words -. a.promoted_words;
    minor_collections = b.minor_collections - a.minor_collections;
    major_collections = b.major_collections - a.major_collections;
  }

(* Peak resident set ([VmHWM] in /proc/self/status) in MiB; NaN where
   the file does not exist. *)
let peak_rss_mb () =
  let prefix = "VmHWM:" in
  let plen = String.length prefix in
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> Float.nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > plen && String.sub line 0 plen = prefix
          -> (
            let v = String.trim (String.sub line plen (String.length line - plen)) in
            match String.split_on_char ' ' v with
            | kb :: _ -> float_of_string kb /. 1024.0
            | [] -> Float.nan)
        | _ -> scan ()
        | exception End_of_file -> Float.nan
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

(* Host speed, measured beside every timed repetition.

   A shared 2-vCPU VM can run the same code up to a third slower for
   minutes at a time; the slowdown comes from the memory system (a
   dependent-load chase slows with the workloads, a pure integer loop
   does not) and shifts between cache-latency-bound and allocation-bound
   code.  Two frozen kernels sample both: a dependent-load chase over a
   4 MiB table (L2 misses) and a cons-and-drop loop streaming through the
   minor heap.  [slowdown ()] is the mean of their times relative to
   their typical values on such a VM (README.md), so 1.0 means the host
   runs at that usual speed; dividing a wall time by it expresses the
   time at that speed.  The kernels are benchmark code and call nothing
   in the repository's libraries, so a change to the program cannot move
   them. *)
(* The table lives outside the OCaml heap and the cons loop keeps at most
   64 cells alive, so the probe neither grows the heap nor leaves work for
   the major collector; it adds a constant 4 MiB to the resident set. *)
let chase_table =
  lazy
    (let a = Bigarray.(Array1.create int c_layout (1 lsl 19)) in
     for i = 0 to (1 lsl 19) - 1 do
       a.{i} <- (i * 0x9E3779B1) land max_int
     done;
     a)

let chase_ns () =
  let a = Lazy.force chase_table in
  let mask = Bigarray.Array1.dim a - 1 and steps = 500_000 in
  let t0 = now_ns () in
  let h = ref 0 in
  for i = 1 to steps do
    h := ((!h * 31) + Bigarray.Array1.unsafe_get a (!h land mask) + i) land max_int
  done;
  ignore (Sys.opaque_identity !h);
  float_of_int (now_ns () - t0) /. float_of_int steps

let cons_ns () =
  let steps = 4_000_000 in
  let t0 = now_ns () in
  let acc = ref [] in
  for i = 1 to steps do
    acc := i :: !acc;
    if i land 63 = 0 then acc := []
  done;
  ignore (Sys.opaque_identity !acc);
  float_of_int (now_ns () - t0) /. float_of_int steps

let typical_chase_ns = 36.0
let typical_cons_ns = 2.0

let median xs =
  match List.sort compare xs with
  | [] -> Float.nan
  | sorted ->
      let a = Array.of_list sorted in
      let k = Array.length a in
      if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.0

let slowdown () =
  let best3 f = median (List.init 3 (fun _ -> f ())) in
  ((best3 chase_ns /. typical_chase_ns) +. (best3 cons_ns /. typical_cons_ns)) /. 2.0

(* Time [f ()] in seconds. *)
let time_s f =
  let t0 = now_ns () in
  let x = f () in
  (x, float_of_int (now_ns () - t0) /. 1e9)

(* FNV-1a over a round's actions and deliveries, folded round by round:
   the order-sensitive digest bench/exp_scale.ml prints, here kept per
   round so a mismatch names the first diverging round. *)
let fnv_init = 0xcbf29ce48422325
let[@inline] fnv h x = (h lxor x) * 0x100000001b3

let round_digest record =
  let module T = Radiosim.Trace in
  let module P = Radiosim.Process in
  let module M = Localcast.Messages in
  let h = ref (fnv fnv_init record.T.round) in
  Array.iter
    (fun a ->
      h :=
        fnv !h
          (match a with
          | P.Transmit (M.Data p) -> 3 + p.M.src
          | P.Transmit _ -> 2
          | P.Listen -> 1))
    record.T.actions;
  Array.iter
    (fun d ->
      h :=
        fnv !h
          (match d with Some (M.Data p) -> 3 + p.M.src | Some _ -> 2 | None -> 1))
    record.T.delivered;
  !h

(* Per-round reception counts recomputed from round records, for the
   traced runs: transmissions, clean deliveries and collisions.  Under the
   dual-graph model a listener collides when two or more of its topology
   neighbors transmit — reliable edges plus the unreliable edges the link
   scheduler activates that round, read from [scheduler], a second
   instance with the run's seed so the engine's own is never queried out
   of turn.  Listeners with exactly one transmitting neighbor must be the
   deliveries ([singles = deliveries] is checked as a gate).  Under SINR
   the probe counts transmissions and deliveries only and keeps each
   round's transmitter set for the kernel replay. *)
module Counts = struct
  module T = Radiosim.Trace
  module P = Radiosim.Process
  module Dual = Dualgraph.Dual

  type t = {
    dual : Dual.t;
    scheduler : Radiosim.Scheduler.t option;  (** [None] under SINR *)
    alive : node:int -> round:int -> bool;
    hits : int array;
    touched : int array;
    mutable transmits : int;
    mutable deliveries : int;
    mutable collisions : int;
    mutable singles : int;
    mutable rounds : int;
    mutable resolved : int list;  (** rounds with a transmitter and m > 0, newest first *)
    mutable tx_sets : (int * int array) list;  (** SINR only, newest first *)
  }

  let create ?(alive = fun ~node:_ ~round:_ -> true) ~dual ~scheduler () =
    let n = Dual.n dual in
    {
      dual;
      scheduler;
      alive;
      hits = Array.make n 0;
      touched = Array.make n 0;
      transmits = 0;
      deliveries = 0;
      collisions = 0;
      singles = 0;
      rounds = 0;
      resolved = [];
      tx_sets = [];
    }

  let observe c record =
    let round = record.T.round in
    let actions = record.T.actions in
    let nt = ref 0 and ntouched = ref 0 in
    let bump u =
      if c.hits.(u) = 0 then begin
        c.touched.(!ntouched) <- u;
        incr ntouched
      end;
      c.hits.(u) <- c.hits.(u) + 1
    in
    Array.iteri
      (fun v a ->
        match a with
        | P.Listen -> ()
        | P.Transmit _ -> (
            incr nt;
            match c.scheduler with
            | None -> ()
            | Some s ->
                Dual.iter_reliable_neighbors c.dual v bump;
                Dual.iter_unreliable_incident c.dual v (fun u edge ->
                    if Radiosim.Scheduler.active s ~round ~edge then bump u)))
      actions;
    for k = 0 to !ntouched - 1 do
      let u = c.touched.(k) in
      (match actions.(u) with
      | P.Listen when c.alive ~node:u ~round ->
          if c.hits.(u) >= 2 then c.collisions <- c.collisions + 1
          else c.singles <- c.singles + 1
      | _ -> ());
      c.hits.(u) <- 0
    done;
    Array.iter
      (fun d -> if d <> None then c.deliveries <- c.deliveries + 1)
      record.T.delivered;
    c.transmits <- c.transmits + !nt;
    c.rounds <- c.rounds + 1;
    if !nt > 0 then begin
      if Dual.unreliable_count c.dual > 0 then c.resolved <- round :: c.resolved;
      if Option.is_none c.scheduler then begin
        let tx = Array.make !nt 0 and k = ref 0 in
        Array.iteri
          (fun v a ->
            match a with
            | P.Transmit _ ->
                tx.(!k) <- v;
                incr k
            | P.Listen -> ())
          actions;
        c.tx_sets <- (round, tx) :: c.tx_sets
      end
    end

  let per_round c x = float_of_int x /. float_of_int (max 1 c.rounds)
end

(* Replays the engine's activation step over the rounds a run resolved:
   [fill_active_sparse] on a fresh scheduler with the run's seed, exactly
   as the engine calls it.  Returns (elapsed ns, active edges, per-edge
   resolutions), the latter two summed over the rounds. *)
let replay_scheduler ~scheduler ~m ~rounds =
  let buf = Array.make (max m 1) 0 in
  let active = ref 0 in
  let t0 = now_ns () in
  List.iter
    (fun round ->
      active :=
        !active + Radiosim.Scheduler.fill_active_sparse scheduler ~round ~m buf)
    rounds;
  let elapsed = now_ns () - t0 in
  let resolved =
    if Radiosim.Scheduler.resolves_sparsely scheduler then !active
    else m * List.length rounds
  in
  (elapsed, !active, resolved)
