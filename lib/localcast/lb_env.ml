(* Receptions are packed one int each, [round lsl recv_shift lor
   receiver], in a growing array: an outcome keeps every entry's log, so
   a list of pairs (six words a reception) dominated its size. *)
type receptions = { mutable packed : int array; mutable count : int }

type entry = {
  node : int;
  payload : Messages.payload;
  bcast_round : int;
  mutable ack_round : int option;
  receptions : receptions;
}

let recv_shift = 30

let add_recv e ~node ~round =
  assert (node >= 0 && node < 1 lsl recv_shift);
  let r = e.receptions in
  if r.count = Array.length r.packed then begin
    let grown = Array.make (max 4 (2 * r.count)) 0 in
    Array.blit r.packed 0 grown 0 r.count;
    r.packed <- grown
  end;
  r.packed.(r.count) <- (round lsl recv_shift) lor node;
  r.count <- r.count + 1

let recv_rounds e =
  let r = e.receptions in
  List.init r.count (fun i ->
      let p = r.packed.(r.count - 1 - i) in
      (p land ((1 lsl recv_shift) - 1), p lsr recv_shift))

type t = {
  env : (Messages.lb_input, Messages.lb_output) Radiosim.Env.t;
  entries : entry list ref;
}

let env t = t.env

let log t = List.rev !(t.entries)

let find_in entries ~node payload =
  List.find_opt
    (fun e -> e.node = node && Messages.payload_equal e.payload payload)
    !entries

(* Shared machinery: [schedule.(v)] holds the round at which node [v]
   should next receive a bcast (if any); [notify] logs acks/recvs and, when
   [reissue] is set, schedules the next bcast one round after each ack. *)
let make ~name ~n ~initial ~reissue =
  let schedule = Array.make n None in
  let next_uid = Array.make n 0 in
  let entries = ref [] in
  List.iter (fun (node, round) -> schedule.(node) <- Some round) initial;
  let env =
    {
      Radiosim.Env.name;
          (* [inputs] consumes the schedule slot — a side effect. *)
          pure_inputs = false;
          inputs =
            (fun ~round ~node ->
              (* [r <= round], not [r = round]: a node that was dead (not
                 polled) at its scheduled round receives the bcast at the
                 first round it is alive again.  Without faults the two
                 are equivalent — inputs are polled every round. *)
              match schedule.(node) with
              | Some r when r <= round ->
                  schedule.(node) <- None;
                  let payload =
                    Messages.payload ~src:node ~uid:next_uid.(node) ()
                  in
                  next_uid.(node) <- next_uid.(node) + 1;
                  entries :=
                    {
                      node;
                      payload;
                      bcast_round = round;
                      ack_round = None;
                      receptions = { packed = [||]; count = 0 };
                    }
                    :: !entries;
                  [ Messages.Bcast payload ]
              | _ -> []);
          notify =
            (fun ~round ~node outs ->
              List.iter
                (fun out ->
                  match out with
                  | Messages.Ack payload ->
                      (match find_in entries ~node payload with
                      | Some e -> e.ack_round <- Some round
                      | None -> ());
                      if reissue then schedule.(node) <- Some (round + 1)
                  | Messages.Recv payload ->
                      (match find_in entries ~node:payload.Messages.src payload with
                      | Some e -> add_recv e ~node ~round
                      | None -> ())
                  | Messages.Committed _ -> ())
                outs);
    }
  in
  { env; entries }

let saturate ?(start = 0) ~n ~senders () =
  make ~name:"saturate" ~n
    ~initial:(List.map (fun v -> (v, start)) senders)
    ~reissue:true

let one_shot ~n ~bcasts = make ~name:"one-shot" ~n ~initial:bcasts ~reissue:false

let is_active t ~node ~round =
  List.exists
    (fun e ->
      e.node = node && e.bcast_round <= round
      && match e.ack_round with None -> true | Some a -> round <= a)
    !(t.entries)
