(* Property-based tests of LBAlg invariants across random topologies,
   schedulers and environments. *)

open Core

module Dual = Dualgraph.Dual
module Geo = Dualgraph.Geometric
module Sch = Radiosim.Scheduler
module Trace = Radiosim.Trace
module P = Radiosim.Process
module M = Localcast.Messages
module Params = Localcast.Params
module Lb_alg = Localcast.Lb_alg
module Lb_env = Localcast.Lb_env
module Lb_spec = Localcast.Lb_spec
module Rng = Prng.Rng

(* A randomized LBAlg execution, small enough for hundreds of qcheck
   iterations. *)
let random_run seed =
  let rng = Rng.of_int seed in
  let n = 2 + Rng.int rng 10 in
  let dual =
    Geo.random_field ~rng ~n ~width:2.5 ~height:2.5 ~r:1.5 ~gray_g':0.5 ()
  in
  let params =
    Params.of_dual
      ~tack_phases:(1 + Rng.int rng 3)
      ~seed_refresh:(1 + Rng.int rng 2)
      ~eps1:0.25 dual
  in
  let sender_count = 1 + Rng.int rng (max 1 (n / 2)) in
  let senders = List.init sender_count (fun i -> i * n / sender_count) in
  let nodes = Lb_alg.network params ~rng ~n in
  let envt = Lb_env.saturate ~n ~senders () in
  let phases = 3 * params.Params.seed_refresh in
  let trace, obs = Trace.recorder () in
  let monitor = Lb_spec.monitor ~dual ~params ~env:envt () in
  let observer record =
    obs record;
    Lb_spec.observe monitor record
  in
  let (_ : int) =
    Radiosim.Engine.run ~observer ~dual
      ~scheduler:(Sch.bernoulli ~seed ~p:0.5)
      ~nodes
      ~env:(Lb_env.env envt)
      ~rounds:(phases * params.Params.phase_len)
      ()
  in
  (dual, params, trace, Lb_spec.finish monitor, envt)

let qcheck_cases =
  let open QCheck in
  [
    Test.make ~name:"validity and ack sanity hold on random runs" ~count:30
      small_int
      (fun seed ->
        let _, _, _, report, _ = random_run seed in
        report.Lb_spec.validity_violations = 0
        && report.Lb_spec.late_ack_count = 0
        && report.Lb_spec.missing_ack_count = 0);
    Test.make ~name:"data only in body rounds, seeds only in preambles"
      ~count:30 small_int
      (fun seed ->
        let _, params, trace, _, _ = random_run seed in
        let ok = ref true in
        Trace.iter
          (fun record ->
            Array.iter
              (fun action ->
                match action with
                | P.Transmit (M.Data _) ->
                    if Lb_alg.is_preamble_round params record.Trace.round then
                      ok := false
                | P.Transmit (M.Seed_msg _) ->
                    if not (Lb_alg.is_preamble_round params record.Trace.round)
                    then ok := false
                | P.Listen -> ())
              record.Trace.actions)
          trace;
        !ok);
    Test.make ~name:"acks land on phase-final rounds" ~count:30 small_int
      (fun seed ->
        let _, params, trace, _, _ = random_run seed in
        let ok = ref true in
        Trace.iter
          (fun record ->
            Array.iter
              (fun outs ->
                List.iter
                  (fun out ->
                    match out with
                    | M.Ack _ ->
                        if
                          record.Trace.round mod params.Params.phase_len
                          <> params.Params.phase_len - 1
                        then ok := false
                    | M.Recv _ | M.Committed _ -> ())
                  outs)
              record.Trace.outputs)
          trace;
        !ok);
    Test.make ~name:"each node recvs a payload at most once" ~count:30
      small_int
      (fun seed ->
        let dual, _, trace, _, _ = random_run seed in
        let ok = ref true in
        for v = 0 to Dual.n dual - 1 do
          let recvs =
            List.filter_map
              (fun (_, out) -> match out with M.Recv p -> Some p | _ -> None)
              (Trace.outputs_of trace v)
          in
          if List.length (List.sort_uniq compare recvs) <> List.length recvs
          then ok := false
        done;
        !ok);
    Test.make ~name:"progress latencies lie inside the phase" ~count:30
      small_int
      (fun seed ->
        let _, params, _, report, _ = random_run seed in
        Array.for_all
          (fun l -> l >= 0 && l < params.Params.phase_len)
          report.Lb_spec.progress_latencies);
    Test.make ~name:"commit events carry real owners and full-length seeds"
      ~count:30 small_int
      (fun seed ->
        let dual, params, trace, _, _ = random_run seed in
        let ok = ref true in
        Trace.iter
          (fun record ->
            Array.iter
              (fun outs ->
                List.iter
                  (fun out ->
                    match out with
                    | M.Committed { M.owner; seed = s } ->
                        if owner < 0 || owner >= Dual.n dual then ok := false;
                        if
                          Prng.Bitstring.length s
                          <> params.Params.seed.Params.kappa
                        then ok := false
                    | M.Recv _ | M.Ack _ -> ())
                  outs)
              record.Trace.outputs)
          trace;
        !ok);
    Test.make ~name:"env log agrees with the spec monitor's ack count"
      ~count:30 small_int
      (fun seed ->
        let _, _, _, report, envt = random_run seed in
        let acked_entries =
          List.length
            (List.filter
               (fun e -> e.Lb_env.ack_round <> None)
               (Lb_env.log envt))
        in
        acked_entries = report.Lb_spec.ack_count);
  ]

let suite = List.map QCheck_alcotest.to_alcotest qcheck_cases
