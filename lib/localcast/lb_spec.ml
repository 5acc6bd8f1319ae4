module Dual = Dualgraph.Dual
module Graph = Dualgraph.Graph
module Trace = Radiosim.Trace
module E = Obs.Event
module Metrics = Obs.Metrics

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

type kind =
  | Late_ack of { latency : int }
  | Missing_ack of { bcast_round : int }
  | Progress_miss of { phase : int }
  | Delta_breach of { owners : int; bound : int }

type violation = { kind : kind; node : int; round : int; detail : string }

(* A bcast awaiting its ack.  It is outstanding while it is the
   [pending] table's binding for its payload. *)
type pending = {
  payload : Messages.payload;
  bcast_round : int;
  mutable receivers : int list;  (** recv'd so far; dropped at the ack *)
  mutable flagged : bool;  (** already reported as Missing_ack *)
}

(* The metric handles the monitor updates; resolved once at creation so
   the per-round path never touches the registry's name table. *)
type instruments = {
  bcasts : Metrics.counter;
  acks : Metrics.counter;
  recvs : Metrics.counter;
  seed_commits : Metrics.counter;
  ack_latency : Metrics.histogram;
  progress_latency : Metrics.histogram;
  transmitters_per_round : Metrics.histogram;
  owners_per_neighborhood : Metrics.histogram;
  registry : Metrics.t;
}

type monitor = {
  dual : Dual.t;
  params : Params.t;
  n : int;
  t_ack : int;
  phase_len : int;
  faults : Faults.Plan.t option;
      (** survivor-relative accounting: claims are scoped to nodes alive
          for the full obligation window *)
  sink : Obs.Sink.t option;
  instruments : instruments option;  (** only together with [sink] *)
  (* activity window: the payload each node actively broadcasts *)
  active : Messages.payload option array;
  pending : (Messages.payload, pending) Hashtbl.t;
  deadlines : pending Queue.t;
      (** bcasts in bcast-round order, until their deadline has passed *)
  (* per-phase progress tracking *)
  active_all : bool array;  (** active in every round of this phase *)
  first_reception : int array;
      (** offset of the first qualifying reception this phase, -1 if none *)
  mutable misses : int list;
      (** receivers that failed the last closed phase, flagged at the
          next round or at [finish] *)
  (* δ occupancy *)
  commits : int array;  (** committed owner per node, min_int = none *)
  stamp : int array;
      (** per owner + 1 (the oracle ablation's global seed has owner -1):
          the last [epoch] it was counted in *)
  mutable epoch : int;
  mutable commits_dirty : bool;
  mutable any_commit : bool;
  (* accumulators *)
  mutable rounds_observed : int;
  mutable validity_violations : int;
  mutable ack_count : int;
  mutable late_ack_count : int;
  mutable missing_ack_count : int;
  mutable max_ack_latency : int;
  mutable reliability_attempts : int;
  mutable reliability_failures : int;
  mutable progress_opportunities : int;
  mutable progress_failures : int;
  mutable progress_latencies_rev : int list;
  mutable violations_rev : violation list;
  mutable snapshots_rev : Metrics.snapshot list;
  mutable finished : bool;
}

let make_instruments sink registry =
  (* Engine-level structural events are counted by a streaming consumer,
     so they tally the events the engine emits directly. *)
  let transmits = Metrics.counter registry "engine.transmits" in
  let deliveries = Metrics.counter registry "engine.deliveries" in
  let collisions = Metrics.counter registry "engine.collisions" in
  let rounds = Metrics.gauge registry "engine.rounds" in
  Obs.Sink.on_event sink (function
    | E.Transmit _ -> Metrics.incr transmits
    | E.Deliver _ -> Metrics.incr deliveries
    | E.Collision _ -> Metrics.incr collisions
    | E.Round_end { round; _ } -> Metrics.set rounds (float_of_int (round + 1))
    | _ -> ());
  {
    bcasts = Metrics.counter registry "lb.bcasts";
    acks = Metrics.counter registry "lb.acks";
    recvs = Metrics.counter registry "lb.recvs";
    seed_commits = Metrics.counter registry "lb.seed_commits";
    ack_latency = Metrics.histogram registry "lb.ack_latency";
    progress_latency = Metrics.histogram registry "lb.progress_latency";
    transmitters_per_round = Metrics.histogram registry "lb.transmitters_per_round";
    owners_per_neighborhood = Metrics.histogram registry "seed.owners_per_neighborhood";
    registry;
  }

let monitor ?faults ?sink ?metrics ~dual ~params ~env:_ () =
  let n = Dual.n dual in
  {
    dual;
    params;
    n;
    t_ack = Params.t_ack_rounds params;
    phase_len = params.Params.phase_len;
    faults;
    sink;
    instruments =
      (match (sink, metrics) with
      | Some s, Some r -> Some (make_instruments s r)
      | _ -> None);
    active = Array.make n None;
    pending = Hashtbl.create 32;
    deadlines = Queue.create ();
    active_all = Array.make n true;
    first_reception = Array.make n (-1);
    misses = [];
    commits = Array.make n min_int;
    stamp = Array.make (n + 1) (-1);
    epoch = 0;
    commits_dirty = false;
    any_commit = false;
    rounds_observed = 0;
    validity_violations = 0;
    ack_count = 0;
    late_ack_count = 0;
    missing_ack_count = 0;
    max_ack_latency = 0;
    reliability_attempts = 0;
    reliability_failures = 0;
    progress_opportunities = 0;
    progress_failures = 0;
    progress_latencies_rev = [];
    violations_rev = [];
    snapshots_rev = [];
    finished = false;
  }

(* Survivor predicate over an inclusive round window; everyone survives
   when no plan is attached. *)
let survivor m ~node ~from ~until =
  match m.faults with
  | None -> true
  | Some plan -> Faults.Plan.alive_through plan ~node ~from ~until

let flag m kind ~node ~round detail =
  m.violations_rev <- { kind; node; round; detail } :: m.violations_rev

(* The per-node passes below recurse over lists and CSR slices directly,
   so a round allocates no closure. *)

let rec mem_int (v : int) = function
  | [] -> false
  | x :: rest -> x = v || mem_int v rest

let rec any_active active_all adj i stop =
  i < stop && (active_all.(adj.(i)) || any_active active_all adj (i + 1) stop)

(* Reliability: every reliable neighbor alive through [from, until]
   received the payload. *)
let rec all_received m adj i stop ~from ~until receivers =
  i >= stop
  || (let v = adj.(i) in
      ((not (survivor m ~node:v ~from ~until)) || mem_int v receivers)
      && all_received m adj (i + 1) stop ~from ~until receivers)

let count_owner m v count =
  let owner = m.commits.(v) in
  if owner <> min_int && m.stamp.(owner + 1) <> m.epoch then begin
    m.stamp.(owner + 1) <- m.epoch;
    count + 1
  end
  else count

(* δ occupancy of [u]'s closed G'-neighborhood: distinct committed owners,
   walked in place over the CSR adjacency. *)
let owners_in m u =
  let g' = Dual.g' m.dual in
  let offs = Graph.csr_offsets g' and adj = Graph.csr_neighbors g' in
  m.epoch <- m.epoch + 1;
  let count = ref (count_owner m u 0) in
  for i = offs.(u) to offs.(u + 1) - 1 do
    count := count_owner m adj.(i) !count
  done;
  !count

(* Verdicts that become detectable at a phase boundary: δ breaches of the
   commits made since the last check, then the closed phase's progress
   misses. *)
let flush m ~round =
  if m.commits_dirty then begin
    m.commits_dirty <- false;
    let bound = m.params.Params.delta_bound in
    for u = 0 to m.n - 1 do
      let owners = owners_in m u in
      if owners > bound then
        flag m (Delta_breach { owners; bound }) ~node:u ~round
          (Printf.sprintf
             "round %d: node %d sees %d distinct seed owners in its closed \
              G'-neighborhood (bound delta = %d)"
             round u owners bound)
    done
  end;
  match m.misses with
  | [] -> ()
  | misses ->
      let phase = (m.rounds_observed / m.phase_len) - 1 in
      List.iter
        (fun u ->
          flag m (Progress_miss { phase }) ~node:u ~round
            (Printf.sprintf
               "round %d: node %d missed the progress deadline of phase %d (a \
                reliable neighbor was active all phase, no qualifying \
                reception)"
               round u phase))
        misses;
      m.misses <- []

let close_phase m =
  (* Called right after the phase's last round was observed, so the phase
     covered rounds [rounds_observed - phase_len, rounds_observed - 1]. *)
  let phase_hi = m.rounds_observed - 1 in
  let phase_lo = m.rounds_observed - m.phase_len in
  let g = Dual.g m.dual in
  let offs = Graph.csr_offsets g and adj = Graph.csr_neighbors g in
  let misses = ref [] in
  for u = 0 to m.n - 1 do
    (* t_prog claims are survivor-relative: only receivers alive for the
       whole phase owe a reception (active_all already excludes senders
       that died mid-phase, via the per-round activity check). *)
    if
      any_active m.active_all adj offs.(u) offs.(u + 1)
      && survivor m ~node:u ~from:phase_lo ~until:phase_hi
    then begin
      m.progress_opportunities <- m.progress_opportunities + 1;
      if m.first_reception.(u) < 0 then begin
        m.progress_failures <- m.progress_failures + 1;
        misses := u :: !misses
      end
      else
        m.progress_latencies_rev <-
          m.first_reception.(u) :: m.progress_latencies_rev
    end
  done;
  m.misses <- List.rev !misses;
  (match m.instruments with
  | None -> ()
  | Some i ->
      if m.any_commit then
        for u = 0 to m.n - 1 do
          Metrics.observe ~node:u i.owners_per_neighborhood
            (float_of_int (owners_in m u))
        done;
      m.snapshots_rev <-
        Metrics.snapshot
          ~label:(Printf.sprintf "phase-%d" (phase_lo / m.phase_len))
          i.registry
        :: m.snapshots_rev);
  Array.fill m.active_all 0 m.n true;
  Array.fill m.first_reception 0 m.n (-1)

(* 1. bcast inputs open their node's activity window from this round on
   and start the ack clock. *)
let rec note_bcasts m ~round u = function
  | [] -> ()
  | Messages.Bcast payload :: rest ->
      m.active.(u) <- Some payload;
      let p = { payload; bcast_round = round; receivers = []; flagged = false } in
      Hashtbl.replace m.pending payload p;
      Queue.push p m.deadlines;
      (match m.sink with
      | None -> ()
      | Some s -> (
          Obs.Sink.emit s
            (E.Bcast { round; node = payload.Messages.src; uid = payload.Messages.uid });
          match m.instruments with Some i -> Metrics.incr i.bcasts | None -> ()));
      note_bcasts m ~round u rest

(* 3a. node outputs: recv validity and reliability bookkeeping, seed
   commits, and the protocol events in output order. *)
let rec note_outputs m ~round u = function
  | [] -> ()
  | Messages.Recv payload :: rest ->
      let src = payload.Messages.src in
      let valid =
        src <> u
        && Graph.mem_edge (Dual.g' m.dual) u src
        && (match m.active.(src) with
           | Some p -> Messages.payload_equal p payload
           | None -> false)
      in
      if not valid then m.validity_violations <- m.validity_violations + 1;
      (* After the ack the verdict is reached: a later recv is invalid and
         is not recorded. *)
      (match Hashtbl.find m.pending payload with
      | p -> p.receivers <- u :: p.receivers
      | exception Not_found -> ());
      (match m.sink with
      | None -> ()
      | Some s -> (
          Obs.Sink.emit s (E.Recv { round; node = u; src; uid = payload.Messages.uid });
          match m.instruments with Some i -> Metrics.incr i.recvs | None -> ()));
      note_outputs m ~round u rest
  | Messages.Ack payload :: rest ->
      (match m.sink with
      | None -> ()
      | Some s -> (
          let latency =
            match Hashtbl.find m.pending payload with
            | p -> round - p.bcast_round
            | exception Not_found -> 0
          in
          Obs.Sink.emit s
            (E.Ack
               { round; node = payload.Messages.src; uid = payload.Messages.uid; latency });
          match m.instruments with
          | Some i ->
              Metrics.incr i.acks;
              Metrics.observe ~node:u i.ack_latency (float_of_int latency)
          | None -> ()));
      note_outputs m ~round u rest
  | Messages.Committed ann :: rest ->
      m.commits.(u) <- ann.Messages.owner;
      m.commits_dirty <- true;
      m.any_commit <- true;
      (match m.sink with
      | None -> ()
      | Some s -> (
          Obs.Sink.emit s (E.Seed_commit { round; node = u; owner = ann.Messages.owner });
          match m.instruments with Some i -> Metrics.incr i.seed_commits | None -> ()));
      note_outputs m ~round u rest

(* Reliability verdict of one ack: owed to the reliable neighbors alive
   for the whole [from, round] window; the dead owe and are owed
   nothing. *)
let judge_reliability m ~round u ~from receivers =
  m.reliability_attempts <- m.reliability_attempts + 1;
  let g = Dual.g m.dual in
  let offs = Graph.csr_offsets g in
  if
    not
      (all_received m (Graph.csr_neighbors g) offs.(u) offs.(u + 1) ~from
         ~until:round receivers)
  then m.reliability_failures <- m.reliability_failures + 1

(* 3b. ack outputs: latency, timeliness and reliability verdicts, after
   every recv of the round is recorded; the node stays active through
   the ack round itself.  Returns [acked] with [u] added once per ack. *)
let rec note_acks m ~round u acked = function
  | [] -> acked
  | Messages.Ack payload :: rest ->
      m.ack_count <- m.ack_count + 1;
      (match Hashtbl.find m.pending payload with
      | p ->
          Hashtbl.remove m.pending payload;
          let b = p.bcast_round in
          let latency = round - b in
          if latency > m.max_ack_latency then m.max_ack_latency <- latency;
          if p.flagged then m.missing_ack_count <- m.missing_ack_count - 1;
          (* A sender that was down inside [b, round] owes no
             timeliness claim for this bcast. *)
          if latency > m.t_ack && survivor m ~node:u ~from:b ~until:round then begin
            m.late_ack_count <- m.late_ack_count + 1;
            if not p.flagged then
              flag m (Late_ack { latency }) ~node:payload.Messages.src ~round
                (Printf.sprintf
                   "round %d: ack of node %d (uid %d) took %d rounds (t_ack = %d)"
                   round payload.Messages.src payload.Messages.uid latency m.t_ack)
          end;
          judge_reliability m ~round u ~from:b p.receivers;
          p.receivers <- []
      | exception Not_found -> judge_reliability m ~round u ~from:round []);
      note_acks m ~round u (u :: acked) rest
  | (Messages.Recv _ | Messages.Committed _) :: rest ->
      note_acks m ~round u acked rest

let rec deactivate m = function
  | [] -> ()
  | u :: rest ->
      m.active.(u) <- None;
      deactivate m rest

(* Flag, at round [now], the still-unacked bcasts with [limit - b > t_ack]
   whose sender was alive through [b, b + t_ack]. *)
let overdue m ~now ~limit =
  while
    (not (Queue.is_empty m.deadlines))
    && limit - (Queue.peek m.deadlines).bcast_round > m.t_ack
  do
    let p = Queue.pop m.deadlines in
    let b = p.bcast_round and src = p.payload.Messages.src in
    match Hashtbl.find m.pending p.payload with
    | q when q == p && survivor m ~node:src ~from:b ~until:(b + m.t_ack) ->
        p.flagged <- true;
        m.missing_ack_count <- m.missing_ack_count + 1;
        flag m (Missing_ack { bcast_round = b }) ~node:src ~round:now
          (Printf.sprintf
             "round %d: bcast of node %d (uid %d, issued round %d) \
              unacknowledged after t_ack = %d rounds"
             now src p.payload.Messages.uid b m.t_ack)
    | _ | (exception Not_found) -> ()
  done

let observe m (record : (Messages.msg, Messages.lb_input, Messages.lb_output) Trace.round_record) =
  assert (not m.finished);
  let round = record.Trace.round in
  let pos = round mod m.phase_len in
  if pos = 0 then begin
    flush m ~round;
    match m.sink with
    | None -> ()
    | Some s ->
        let phase = round / m.phase_len in
        Obs.Sink.emit s
          (E.Phase_start
             { round; phase; preamble = phase mod m.params.Params.seed_refresh = 0 })
  end;
  let inputs = record.Trace.inputs in
  for u = 0 to Array.length inputs - 1 do
    note_bcasts m ~round u inputs.(u)
  done;
  (* 2. the progress witness: the phase's first clean reception of data
     from an actively-broadcasting source. *)
  let delivered = record.Trace.delivered in
  for u = 0 to Array.length delivered - 1 do
    match delivered.(u) with
    | Some (Messages.Data payload) -> (
        match m.active.(payload.Messages.src) with
        | Some active_payload
          when Messages.payload_equal active_payload payload
               && m.first_reception.(u) < 0 -> (
            m.first_reception.(u) <- pos;
            match m.sink with
            | None -> ()
            | Some s -> (
                Obs.Sink.emit s (E.Progress { round; node = u; latency = pos });
                match m.instruments with
                | Some i ->
                    Metrics.observe ~node:u i.progress_latency (float_of_int pos)
                | None -> ()))
        | _ -> ())
    | Some (Messages.Seed_msg _) | None -> ()
  done;
  let outputs = record.Trace.outputs in
  for u = 0 to Array.length outputs - 1 do
    note_outputs m ~round u outputs.(u)
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
  (match m.instruments with
  | None -> ()
  | Some i ->
      let transmitting = ref 0 in
      let actions = record.Trace.actions in
      for v = 0 to Array.length actions - 1 do
        match actions.(v) with
        | Radiosim.Process.Transmit _ -> incr transmitting
        | Radiosim.Process.Listen -> ()
      done;
      Metrics.observe i.transmitters_per_round (float_of_int !transmitting));
  overdue m ~now:round ~limit:round;
  m.rounds_observed <- m.rounds_observed + 1;
  if m.rounds_observed mod m.phase_len = 0 then close_phase m

let finish m =
  if not m.finished then begin
    m.finished <- true;
    (* A trailing partial phase carries no progress obligations; pending
       acks are judged against the rounds that actually elapsed. *)
    if m.rounds_observed > 0 then begin
      let last = m.rounds_observed - 1 in
      flush m ~round:last;
      overdue m ~now:last ~limit:m.rounds_observed
    end
  end;
  {
    rounds_observed = m.rounds_observed;
    validity_violations = m.validity_violations;
    ack_count = m.ack_count;
    late_ack_count = m.late_ack_count;
    missing_ack_count = m.missing_ack_count;
    max_ack_latency = m.max_ack_latency;
    reliability_attempts = m.reliability_attempts;
    reliability_failures = m.reliability_failures;
    progress_opportunities = m.progress_opportunities;
    progress_failures = m.progress_failures;
    progress_latencies = Array.of_list (List.rev m.progress_latencies_rev);
  }

let violations m = List.rev m.violations_rev
let snapshots m = List.rev m.snapshots_rev
