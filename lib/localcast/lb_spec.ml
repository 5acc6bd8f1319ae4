module Dual = Dualgraph.Dual
module Trace = Radiosim.Trace

type report = {
  rounds_observed : int;
  validity_violations : int;
  ack_count : int;
  late_ack_count : int;
  missing_ack_count : int;
  max_ack_latency : int;
  reliability_attempts : int;
  reliability_failures : int;
  progress_opportunities : int;
  progress_failures : int;
  progress_latencies : int array;
}

let reliability_rate r =
  if r.reliability_attempts = 0 then 1.0
  else
    float_of_int (r.reliability_attempts - r.reliability_failures)
    /. float_of_int r.reliability_attempts

let progress_rate r =
  if r.progress_opportunities = 0 then 1.0
  else
    float_of_int (r.progress_opportunities - r.progress_failures)
    /. float_of_int r.progress_opportunities

type monitor = {
  dual : Dual.t;
  params : Params.t;
  n : int;
  t_ack : int;
  faults : Faults.Plan.t option;
      (** survivor-relative accounting: claims are scoped to nodes alive
          for the full obligation window *)
  (* activity tracking *)
  active : Messages.payload option array;
  bcast_round : (Messages.payload, int) Hashtbl.t;
  receivers : (Messages.payload, (int, unit) Hashtbl.t) Hashtbl.t;
  (* per-phase progress tracking *)
  mutable active_all : bool array;  (** active in every round of this phase *)
  mutable first_reception : int array;
      (** offset of the first qualifying reception this phase, -1 if none *)
  (* accumulators *)
  mutable rounds_observed : int;
  mutable validity_violations : int;
  mutable ack_count : int;
  mutable late_ack_count : int;
  mutable max_ack_latency : int;
  mutable reliability_attempts : int;
  mutable reliability_failures : int;
  mutable progress_opportunities : int;
  mutable progress_failures : int;
  mutable progress_latencies_rev : int list;
  mutable finished : bool;
}

let monitor ?faults ~dual ~params ~env:_ () =
  let n = Dual.n dual in
  {
    dual;
    params;
    n;
    t_ack = Params.t_ack_rounds params;
    faults;
    active = Array.make n None;
    bcast_round = Hashtbl.create 32;
    receivers = Hashtbl.create 32;
    active_all = Array.make n true;
    first_reception = Array.make n (-1);
    rounds_observed = 0;
    validity_violations = 0;
    ack_count = 0;
    late_ack_count = 0;
    max_ack_latency = 0;
    reliability_attempts = 0;
    reliability_failures = 0;
    progress_opportunities = 0;
    progress_failures = 0;
    progress_latencies_rev = [];
    finished = false;
  }

(* Survivor predicate over an inclusive round window; everyone survives
   when no plan is attached. *)
let survivor m ~node ~from ~until =
  match m.faults with
  | None -> true
  | Some plan -> Faults.Plan.alive_through plan ~node ~from ~until

let close_phase m =
  (* Called right after the phase's last round was observed, so the phase
     covered rounds [rounds_observed - phase_len, rounds_observed - 1]. *)
  let phase_hi = m.rounds_observed - 1 in
  let phase_lo = m.rounds_observed - m.params.Params.phase_len in
  for u = 0 to m.n - 1 do
    let opportunity =
      Dual.fold_reliable_neighbors m.dual u ~init:false ~f:(fun acc v ->
          acc || m.active_all.(v))
    in
    (* t_prog claims are survivor-relative: only receivers alive for the
       whole phase owe a reception (active_all already excludes senders
       that died mid-phase, via the per-round activity check). *)
    if opportunity && survivor m ~node:u ~from:phase_lo ~until:phase_hi
    then begin
      m.progress_opportunities <- m.progress_opportunities + 1;
      if m.first_reception.(u) < 0 then
        m.progress_failures <- m.progress_failures + 1
      else
        m.progress_latencies_rev <-
          m.first_reception.(u) :: m.progress_latencies_rev
    end
  done;
  Array.fill m.active_all 0 m.n true;
  Array.fill m.first_reception 0 m.n (-1)

(* The per-node passes of [observe] recurse over each node's list
   directly, so a round allocates no closure. *)

(* 1. bcast inputs make their node active from this round on. *)
let rec note_bcasts m ~round u = function
  | [] -> ()
  | Messages.Bcast payload :: rest ->
      m.active.(u) <- Some payload;
      Hashtbl.replace m.bcast_round payload round;
      note_bcasts m ~round u rest

(* 3a. recv outputs: validity + reliability bookkeeping. *)
let rec note_recvs m u = function
  | [] -> ()
  | Messages.Recv payload :: rest ->
      let src = payload.Messages.src in
      let valid =
        src <> u
        && Dualgraph.Graph.mem_edge (Dual.g' m.dual) u src
        && (match m.active.(src) with
           | Some p -> Messages.payload_equal p payload
           | None -> false)
      in
      if not valid then m.validity_violations <- m.validity_violations + 1;
      let set =
        match Hashtbl.find_opt m.receivers payload with
        | Some set -> set
        | None ->
            let set = Hashtbl.create 8 in
            Hashtbl.add m.receivers payload set;
            set
      in
      Hashtbl.replace set u ();
      note_recvs m u rest
  | (Messages.Ack _ | Messages.Committed _) :: rest -> note_recvs m u rest

(* 3b. ack outputs: latency + reliability verdicts; the node stays
   active through the ack round itself.  Returns [acked] with [u] added
   once per ack. *)
let rec note_acks m ~round u acked = function
  | [] -> acked
  | Messages.Ack payload :: rest ->
      m.ack_count <- m.ack_count + 1;
      let b_opt = Hashtbl.find_opt m.bcast_round payload in
      (match b_opt with
      | Some b ->
          let latency = round - b in
          if latency > m.max_ack_latency then m.max_ack_latency <- latency;
          (* A sender that was down inside [b, round] owes no
             timeliness claim for this bcast. *)
          if latency > m.t_ack && survivor m ~node:u ~from:b ~until:round
          then m.late_ack_count <- m.late_ack_count + 1;
          Hashtbl.remove m.bcast_round payload
      | None -> ());
      m.reliability_attempts <- m.reliability_attempts + 1;
      let received_by =
        match Hashtbl.find_opt m.receivers payload with
        | Some set -> set
        | None -> Hashtbl.create 1
      in
      (* Reliability is owed to the neighbors alive for the whole
         [bcast, ack] window; the dead owe and are owed nothing. *)
      let from = match b_opt with Some b -> b | None -> round in
      let all_neighbors_got_it =
        Dual.fold_reliable_neighbors m.dual u ~init:true ~f:(fun acc v ->
            acc
            && ((not (survivor m ~node:v ~from ~until:round))
               || Hashtbl.mem received_by v))
      in
      if not all_neighbors_got_it then
        m.reliability_failures <- m.reliability_failures + 1;
      note_acks m ~round u (u :: acked) rest
  | (Messages.Recv _ | Messages.Committed _) :: rest ->
      note_acks m ~round u acked rest

let rec deactivate m = function
  | [] -> ()
  | u :: rest ->
      m.active.(u) <- None;
      deactivate m rest

let observe m (record : (Messages.msg, Messages.lb_input, Messages.lb_output) Trace.round_record) =
  assert (not m.finished);
  let round = record.Trace.round in
  let inputs = record.Trace.inputs in
  for u = 0 to Array.length inputs - 1 do
    note_bcasts m ~round u inputs.(u)
  done;
  (* 2. clean receptions of data from an actively-broadcasting source are
     qualifying progress receptions. *)
  let delivered = record.Trace.delivered in
  for u = 0 to Array.length delivered - 1 do
    match delivered.(u) with
    | Some (Messages.Data payload) -> (
        match m.active.(payload.Messages.src) with
        | Some active_payload
          when Messages.payload_equal active_payload payload ->
            if m.first_reception.(u) < 0 then
              m.first_reception.(u) <- round mod m.params.Params.phase_len
        | _ -> ())
    | Some (Messages.Seed_msg _) | None -> ()
  done;
  let outputs = record.Trace.outputs in
  for u = 0 to Array.length outputs - 1 do
    note_recvs m u outputs.(u)
  done;
  let acked = ref [] in
  for u = 0 to Array.length outputs - 1 do
    acked := note_acks m ~round u !acked outputs.(u)
  done;
  (* 4. progress: a node must be active (and alive) in every round of the
     phase. *)
  for v = 0 to m.n - 1 do
    match m.active.(v) with None -> m.active_all.(v) <- false | Some _ -> ()
  done;
  (match m.faults with
  | None -> ()
  | Some plan ->
      for v = 0 to m.n - 1 do
        if not (Faults.Plan.alive plan ~node:v ~round) then
          m.active_all.(v) <- false
      done);
  (* 5. acked senders stop being active after this round. *)
  deactivate m !acked;
  m.rounds_observed <- m.rounds_observed + 1;
  if m.rounds_observed mod m.params.Params.phase_len = 0 then close_phase m

let finish m =
  if not m.finished then begin
    m.finished <- true
    (* A trailing partial phase carries no progress obligations; pending
       acks are judged against the rounds that actually elapsed. *)
  end;
  let missing_ack_count =
    Hashtbl.fold
      (fun payload b acc ->
        (* The obligation window is [b, b + t_ack] (clipped to the run);
           a sender down anywhere inside it is exempt. *)
        let deadline = min (m.rounds_observed - 1) (b + m.t_ack) in
        if
          m.rounds_observed - b > m.t_ack
          && survivor m ~node:payload.Messages.src ~from:b ~until:deadline
        then acc + 1
        else acc)
      m.bcast_round 0
  in
  {
    rounds_observed = m.rounds_observed;
    validity_violations = m.validity_violations;
    ack_count = m.ack_count;
    late_ack_count = m.late_ack_count;
    missing_ack_count;
    max_ack_latency = m.max_ack_latency;
    reliability_attempts = m.reliability_attempts;
    reliability_failures = m.reliability_failures;
    progress_opportunities = m.progress_opportunities;
    progress_failures = m.progress_failures;
    progress_latencies = Array.of_list (List.rev m.progress_latencies_rev);
  }

let check_trace ?faults ~dual ~params ~env trace =
  let m = monitor ?faults ~dual ~params ~env () in
  Trace.iter (observe m) trace;
  finish m
