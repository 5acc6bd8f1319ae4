(* Scripted round records for driving the Lb_spec monitor directly: a
   test lists, per round, the bcast inputs, clean data deliveries, node
   outputs and seed commits, and [run] materializes the records, feeds
   them in order and returns the monitor's report and violations. *)

module Dual = Dualgraph.Dual
module Graph = Dualgraph.Graph
module M = Localcast.Messages
module Params = Localcast.Params
module S = Localcast.Lb_spec

type step =
  | Bcast of { node : int; uid : int }
  | Deliver of { node : int; src : int; uid : int }
      (** [node] cleanly receives [src]'s data message [uid] *)
  | Recv of { node : int; src : int; uid : int }
  | Ack of { node : int; uid : int }
  | Commit of { node : int; owner : int }

(* [g] the reliable edges; [g'] adds the unreliable ones. *)
let dual ~n ?(unreliable = []) reliable =
  Dual.create
    ~g:(Graph.create ~n ~edges:reliable)
    ~g':(Graph.create ~n ~edges:(reliable @ unreliable))
    ()

(* Parameters with the given phase length and t_ack (a multiple of it). *)
let params ?(delta_bound = 1000) ~phase_len ~t_ack () =
  if t_ack mod phase_len <> 0 then invalid_arg "Lb_script.params";
  {
    (Params.make ~delta:1 ~delta':1 ~r:1.0 ~eps1:0.25 ()) with
    Params.phase_len;
    tack_phases = (t_ack / phase_len) - 1;
    delta_bound;
    seed_refresh = 1;
  }

let record ~n ~round steps =
  let inputs = Array.make n [] and outputs = Array.make n [] in
  let delivered = Array.make n None in
  let out node o = outputs.(node) <- outputs.(node) @ [ o ] in
  List.iter
    (function
      | Bcast { node; uid } ->
          inputs.(node) <- inputs.(node) @ [ M.Bcast (M.payload ~src:node ~uid ()) ]
      | Deliver { node; src; uid } ->
          delivered.(node) <- Some (M.Data (M.payload ~src ~uid ()))
      | Recv { node; src; uid } -> out node (M.Recv (M.payload ~src ~uid ()))
      | Ack { node; uid } -> out node (M.Ack (M.payload ~src:node ~uid ()))
      | Commit { node; owner } ->
          out node
            (M.Committed { M.owner; seed = Prng.Bitstring.of_bools [ false ] }))
    steps;
  {
    Radiosim.Trace.round;
    inputs;
    actions = Array.make n Radiosim.Process.Listen;
    delivered;
    outputs;
  }

(* Observe rounds [0, rounds) with [steps_at r] scripted in round [r]. *)
let run ?faults ~dual ~params ~rounds steps_at =
  let n = Dual.n dual in
  let env = Localcast.Lb_env.one_shot ~n ~bcasts:[] in
  let m = S.monitor ?faults ~dual ~params ~env () in
  for round = 0 to rounds - 1 do
    S.observe m (record ~n ~round (steps_at round))
  done;
  let report = S.finish m in
  (report, S.violations m)

let summary violations =
  List.map (fun v -> (v.S.kind, v.S.node, v.S.round, v.S.detail)) violations

let pp_summary ppf vs =
  List.iter
    (fun (_, node, round, detail) ->
      Format.fprintf ppf "(node %d, round %d) %s@." node round detail)
    vs

(* Exact (kind, node, round, detail) comparison. *)
let check_violations name expected violations =
  let got = summary violations in
  if got <> expected then
    Alcotest.failf "%s: expected@.%agot@.%a" name pp_summary expected pp_summary
      got
