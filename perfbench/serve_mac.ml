(* Workload serve-mac: open-loop multi-message serving over the real
   abstract MAC layer.

   [Macapps.Serve.run] over [Localcast.Mac] on the field and settings of
   the [serve] CLI subcommand (64 nodes on a 4x4 field, eps1 = 0.25),
   driven by Poisson arrivals at 0.002 per round — just above completion
   capacity, so admission, the relay queues, the ttl wheel and relay drops
   all do work.  Unlike the CLI, which reads Δ and Δ' off each field, the
   LBAlg parameters come from one local density bound (Δ = 24, Δ' = 32,
   as E9 does for lb-field): at 64 nodes a seed whose field happens to
   have Δ = 16 would otherwise halve the level count and run a different
   protocol schedule.  Many short-lived messages, request/ack callbacks instead
   of a saturating environment, no spec observer, a long horizon over few
   nodes: LBAlg used differently from lb-field.

   The traced run rebuilds [Serve.run] from [Serve.Core.create] +
   [Mac.create] + [Core.set_send] + [Mac.run ~tick] with the tick, the
   MAC callbacks and the send hook wrapped, and checks that its report
   equals the runner's in every field but the allocation probe. *)

module Dual = Dualgraph.Dual
module L = Localcast
module Serve = Macapps.Serve
module Workload = Macapps.Workload

type config = {
  n : int;
  width : float;
  r : float;
  gray : float;
  delta : int;
  delta' : int;
  eps1 : float;
  tack_phases : int;
  link_p : float;
  rate : float;  (** Poisson arrivals per round, network-wide *)
  queue_cap : int;
  max_inflight : int;
  ttl : int;
  policy : Serve.policy;
  rounds : int;
  setups : int;  (** set-ups timed before each repetition; [setup_s] is their median *)
}

let default =
  {
    n = 64;
    width = 4.0;
    r = 1.5;
    gray = 0.5;
    delta = 24;
    delta' = 32;
    eps1 = 0.25;
    tack_phases = 2;
    link_p = 0.5;
    rate = 0.002;
    queue_cap = 8;
    max_inflight = 512;
    ttl = 30_000;
    policy = Serve.Drop_tail;
    rounds = 100_000;
    setups = 5;
  }

let process c = Workload.Poisson { rate = c.rate }

let config_fields c =
  let f = Outcome.json_float and i = Outcome.json_int
  and s = Outcome.json_string in
  [
    ("runner", s "Macapps.Serve.run");
    ("n", i c.n);
    ("width", f c.width);
    ("r", f c.r);
    ("gray", f c.gray);
    ("delta", i c.delta);
    ("delta_prime", i c.delta');
    ("eps1", f c.eps1);
    ("tack_phases", i c.tack_phases);
    ("scheduler", s (Printf.sprintf "bernoulli:%g" c.link_p));
    ("reception", s "dual-graph");
    ("workload", s (Workload.process_to_string (process c)));
    ("queue_cap", i c.queue_cap);
    ("max_inflight", i c.max_inflight);
    ("ttl", i c.ttl);
    ("policy", s (Serve.policy_to_string c.policy));
    ("rounds", i c.rounds);
    ("tiles", i 1);
    ("domains", i 1);
    ("setups_per_repetition", i c.setups);
  ]

(* Seeds as the CLI derives them: field and workload from [seed], the
   MAC's generator from [seed + 1]. *)
let field c ~seed =
  Dualgraph.Geometric.random_field ~rng:(Prng.Rng.of_int seed) ~n:c.n
    ~width:c.width ~height:c.width ~r:c.r ~gray_g':c.gray ()

let params c =
  L.Params.make ~delta:c.delta ~delta':c.delta' ~r:c.r ~eps1:c.eps1
    ~tack_phases:c.tack_phases ()

let serve_config c =
  Serve.config ~queue_cap:c.queue_cap ~max_inflight:c.max_inflight ~ttl:c.ttl
    ~policy:c.policy ()

let workload c ~seed = Workload.create ~process:(process c) ~n:c.n ~seed ()
let scheduler c ~seed = Radiosim.Scheduler.bernoulli ~seed ~p:c.link_p

(* One timed set-up: the field plus the serving core and the MAC (which
   builds the LBAlg network underneath).  Returns (field s, total s). *)
let setup c ~seed () =
  let dual, field_s = Probe.time_s (fun () -> field c ~seed) in
  let (), rest_s =
    Probe.time_s (fun () ->
        let params = params c in
        let core = Serve.Core.create ~config:(serve_config c) ~n:c.n () in
        let mac = L.Mac.create ~params ~rng:(Prng.Rng.of_int (seed + 1)) ~dual () in
        ignore (Sys.opaque_identity (core, mac)))
  in
  (field_s, field_s +. rest_s)

let serve_run c ~dual ~seed =
  Serve.run ~config:(serve_config c) ~workload:(workload c ~seed)
    ~params:(params c)
    ~rng:(Prng.Rng.of_int (seed + 1))
    ~dual ~scheduler:(scheduler c ~seed) ~rounds:c.rounds ()

let timed_run c ~dual ~seed =
  Outcome.time_run ~node_rounds:(c.n * c.rounds) (fun () -> serve_run c ~dual ~seed)

(* Reports compared without the allocation probe, which depends on how
   the run was driven. *)
let same_outcome a b =
  compare { a with Serve.minor_words_per_round = 0.0 }
    { b with Serve.minor_words_per_round = 0.0 }
  = 0

type traced = {
  report : Serve.report;
  run_id : int;
  counts : Probe.Counts.t;
  requests : int;
  accepted : int;
  delivery_p90 : float;
}

(* The traced composition, step for step what [Serve.run] does. *)
let traced c ~dual ~seed spans =
  let n = c.n in
  let params = params c in
  let cfg = serve_config c in
  let cfg = { cfg with Serve.ack_deadline = L.Params.t_ack_rounds params } in
  let registry = Obs.Metrics.create () in
  let core = Serve.Core.create ~metrics:registry ~config:cfg ~n () in
  let run_id = ref (-1) in
  let requests = ref 0 and accepted = ref 0 in
  let counts =
    Probe.Counts.create ~dual ~scheduler:(Some (scheduler c ~seed)) ()
  in
  let workload = workload c ~seed in
  let (_ : int) =
    Span.with_span spans "mac.run" (fun id ->
        run_id := id;
        let layer = Span.layer spans ~parent:id in
        let l_tick = layer "serve.tick"
        and l_recv = layer "serve.on_recv"
        and l_ack = layer "serve.on_ack"
        and l_probe = layer "bench.probe" in
        let callbacks =
          {
            L.Mac.on_recv =
              (fun ~node ~round payload ->
                let w0 = Probe.minor_words_here () in
                let t0 = Probe.now_ns () in
                Serve.Core.on_recv core ~node ~round ~tag:payload.L.Messages.tag;
                let t1 = Probe.now_ns () in
                let w1 = Probe.minor_words_here () in
                Span.add l_recv ~round ~t0 ~t1 ~words:(w1 - w0));
            on_ack =
              (fun ~node ~round payload ->
                let w0 = Probe.minor_words_here () in
                let t0 = Probe.now_ns () in
                Serve.Core.on_ack core ~node ~round ~tag:payload.L.Messages.tag;
                let t1 = Probe.now_ns () in
                let w1 = Probe.minor_words_here () in
                Span.add l_ack ~round ~t0 ~t1 ~words:(w1 - w0));
          }
        in
        let mac =
          L.Mac.create ~callbacks ~params ~rng:(Prng.Rng.of_int (seed + 1)) ~dual ()
        in
        Serve.Core.set_send core (fun ~node ~tag ->
            incr requests;
            let ok = L.Mac.request mac ~node ~tag in
            if ok then incr accepted;
            ok);
        let tick ~round =
          let w0 = Probe.minor_words_here () in
          let t0 = Probe.now_ns () in
          Serve.Core.tick core ~workload ~round;
          let t1 = Probe.now_ns () in
          let w1 = Probe.minor_words_here () in
          Span.add l_tick ~round ~t0 ~t1 ~words:(w1 - w0)
        in
        let observer record =
          let t0 = Probe.now_ns () in
          Probe.Counts.observe counts record;
          let t1 = Probe.now_ns () in
          Span.add l_probe ~round:record.Radiosim.Trace.round ~t0 ~t1 ~words:0
        in
        L.Mac.run ~observer ~tick mac ~scheduler:(scheduler c ~seed)
          ~rounds:c.rounds)
  in
  Span.finish spans;
  let report = Serve.Core.report core ~rounds:c.rounds in
  let delivery_p90 =
    match
      Obs.Metrics.summary
        (Obs.Metrics.bounded_histogram registry "serve.delivery_latency")
    with
    | Some s -> s.Obs.Metrics.p90
    | None -> Float.nan
  in
  {
    report;
    run_id = !run_id;
    counts;
    requests = !requests;
    accepted = !accepted;
    delivery_p90;
  }

let rate = Outcome.rate

let run c ~seed ~seconds ~trace =
  let dual = field c ~seed in
  let samples =
    Outcome.repeat ~seconds ~min_reps:1 ~max_reps:50 ~setups:c.setups
      ~setup:(setup c ~seed) (fun _ -> timed_run c ~dual ~seed)
  in
  let reports = Outcome.results samples in
  let report = List.hd reports in
  let module S = Serve in
  (* Messages the conservation identities cannot account for. *)
  let unaccounted =
    abs (report.S.arrivals - report.S.admitted - report.S.rejected)
    + abs
        (report.S.admitted - report.S.completed - report.S.expired
       - report.S.inflight)
  in
  let gates =
    [
      Outcome.gate "conservation audit is empty" (report.S.audit = [])
        (String.concat "; " report.S.audit);
      Outcome.gate "some message completes" (report.S.completed > 0)
        (string_of_int report.S.completed);
      Outcome.gate "every repetition reports the same"
        (List.for_all (fun r -> same_outcome r report) reports)
        (Printf.sprintf "%d repetitions" (List.length reports));
    ]
  in
  let node_rounds = c.n * c.rounds in
  let notes =
    [
      ("rounds", string_of_int c.rounds);
      ("repetitions", string_of_int (List.length reports));
    ]
    @ Outcome.timing_notes samples
    @ [
      ( "arrivals",
        Printf.sprintf "%d (%d admitted, %d rejected)" report.S.arrivals
          report.S.admitted report.S.rejected );
      ( "admitted",
        Printf.sprintf "%d completed, %d expired, %d in flight"
          report.S.completed report.S.expired report.S.inflight );
      ( "relays",
        Printf.sprintf "%d (%d dropped, %d stale skips)" report.S.relays
          report.S.relay_drops report.S.stale_skips );
      ( "delivery p50/p99",
        Printf.sprintf "%g/%g rounds" report.S.delivery_p50 report.S.delivery_p99 );
    ]
  in
  let gates, layers, spans =
    if not trace then (gates, [], None)
    else begin
      let spans = Span.create () in
      let t = traced c ~dual ~seed spans in
      let cnt = t.counts in
      let fill_ns, active, edges_resolved =
        Span.with_span spans "replay.scheduler" (fun _ ->
            Probe.replay_scheduler ~scheduler:(scheduler c ~seed)
              ~m:(Dual.unreliable_count dual)
              ~rounds:(List.rev cnt.Probe.Counts.resolved))
      in
      let busy = Span.busy_ns spans in
      let per_call name =
        float_of_int (busy name) /. float_of_int (max 1 (Span.calls spans name))
      in
      let traced_ns = rate (busy "mac.run") node_rounds in
      let layers =
        [
          ("engine.transmits", Probe.Counts.per_round cnt cnt.transmits);
          ("engine.deliveries", Probe.Counts.per_round cnt cnt.deliveries);
          ("engine.collisions", Probe.Counts.per_round cnt cnt.collisions);
          ("engine.delivery_ratio", rate cnt.deliveries (cnt.deliveries + cnt.collisions));
          ("scheduler.fill_ns_per_round", rate fill_ns c.rounds);
          ("scheduler.edges_resolved", rate edges_resolved c.rounds);
          ("engine.active_edges", rate active c.rounds);
          ("serve.tick_ns_per_round", rate (busy "serve.tick") c.rounds);
          ("serve.on_recv_ns", per_call "serve.on_recv");
          ("serve.on_ack_ns", per_call "serve.on_ack");
          ("mac.request_accept_ratio", rate t.accepted t.requests);
          ( "serve.relay_drop_ratio",
            rate report.S.relay_drops (report.S.relays + report.S.relay_drops) );
          ( "serve.stale_skip_ratio",
            rate report.S.stale_skips (report.S.relays + report.S.stale_skips) );
          ("serve.mean_queue_depth", report.S.mean_queue_depth);
          ("mac.self_ns_per_node_round", rate (Span.self_ns spans t.run_id) node_rounds);
          ("goodput_per_kround", 1000.0 *. rate report.S.completed c.rounds);
          ("delivery_p50_rounds", report.S.delivery_p50);
          ("delivery_p90_rounds", t.delivery_p90);
          ("loss_rate", rate (report.S.rejected + report.S.expired) report.S.arrivals);
        ]
        @ Outcome.common_layers samples ~dual ~traced_ns
      in
      let gates =
        gates
        @ [
            Outcome.gate "traced composition report = Serve.run report"
              (same_outcome t.report report) "";
            Outcome.gate "single-transmitter listeners = deliveries"
              (cnt.singles = cnt.deliveries)
              (Printf.sprintf "%d/%d" cnt.singles cnt.deliveries);
          ]
      in
      (gates, layers, Some spans)
    end
  in
  Outcome.make ~config:(config_fields c) ~gates ~attempted:report.S.arrivals
    ~failed:unaccounted ~trace ~e2e:(Outcome.end_to_end samples) ~layers ~notes
    ~spans
