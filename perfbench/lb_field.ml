(* Workload lb-field: the paper's stack end to end.

   [Localcast.Service.run] on a constant-density random field with E9's
   local parameter set, a tenth of the nodes saturated senders, the
   service's default dense Bernoulli(1/2) link scheduler and dual-graph
   reception.  The process layer (LBAlg) and the spec monitor do most of
   the work.

   The traced run rebuilds [Service.run] from the public calls it is made
   of — [Lb_alg.network] + [Lb_env.saturate] + [Lb_spec.monitor] +
   [Engine.run] — with every [Process.node] closure, both [Env.t] fields
   and the observer wrapped in timing spans, and checks that its spec
   report equals the runner's. *)

module Dual = Dualgraph.Dual
module L = Localcast
module P = Radiosim.Process
module Env = Radiosim.Env

type config = {
  n : int;
  density : float;  (** nodes per unit² *)
  r : float;
  gray : float;  (** probability a grey-zone pair gets an unreliable edge *)
  delta : int;
  delta' : int;
  eps1 : float;
  tack_phases : int;
  phases : int;
  sender_every : int;  (** every k-th node is a saturated sender *)
  link_p : float;  (** the service's default Bernoulli link scheduler *)
  setups : int;  (** set-ups timed before each repetition; [setup_s] is their median *)
}

let default =
  {
    n = 2000;
    density = 4.0;
    r = 1.5;
    gray = 0.5;
    delta = 32;
    delta' = 48;
    eps1 = 0.1;
    tack_phases = 1;
    phases = 3;
    sender_every = 10;
    link_p = 0.5;
    setups = 5;
  }

let config_fields c =
  let f = Outcome.json_float and i = Outcome.json_int in
  [
    ("runner", Outcome.json_string "Localcast.Service.run");
    ("n", i c.n);
    ("density", f c.density);
    ("r", f c.r);
    ("gray", f c.gray);
    ("delta", i c.delta);
    ("delta_prime", i c.delta');
    ("eps1", f c.eps1);
    ("tack_phases", i c.tack_phases);
    ("phases", i c.phases);
    ("sender_every", i c.sender_every);
    ("scheduler", Outcome.json_string (Printf.sprintf "bernoulli:%g" c.link_p));
    ("reception", Outcome.json_string "dual-graph");
    ("tiles", i 1);
    ("domains", i 1);
    ("setups_per_repetition", i c.setups);
  ]

let params c =
  L.Params.make ~delta:c.delta ~delta':c.delta' ~r:c.r ~eps1:c.eps1
    ~tack_phases:c.tack_phases ()

let field c ~seed =
  let side = sqrt (float_of_int c.n /. c.density) in
  Dualgraph.Geometric.random_field ~rng:(Prng.Rng.of_int seed) ~n:c.n
    ~width:side ~height:side ~r:c.r ~gray_g':c.gray ()

let senders c = List.init ((c.n + c.sender_every - 1) / c.sender_every) (fun i -> i * c.sender_every)

(* One timed set-up: the field plus everything [Service.run] constructs
   before its first round.  Returns (field s, total s). *)
let setup c ~seed () =
  let params = params c in
  let dual, field_s = Probe.time_s (fun () -> field c ~seed) in
  let (), rest_s =
    Probe.time_s (fun () ->
        let nodes = L.Lb_alg.network params ~rng:(Prng.Rng.of_int seed) ~n:c.n in
        let envt = L.Lb_env.saturate ~n:c.n ~senders:(senders c) () in
        let monitor = L.Lb_spec.monitor ~dual ~params ~env:envt () in
        ignore (Sys.opaque_identity (nodes, monitor)))
  in
  (field_s, field_s +. rest_s)

let rounds c = c.phases * (params c).L.Params.phase_len

let service_run c ~dual ~seed =
  L.Service.run ~dual ~params:(params c) ~senders:(senders c) ~phases:c.phases
    ~seed ()

let timed_run c ~dual ~seed =
  Outcome.time_run ~node_rounds:(c.n * rounds c) (fun () ->
      service_run c ~dual ~seed)

(* The traced composition.  Returns the spec report, the run span's id,
   the reception counts, and the engine's own activation counters. *)
let traced c ~dual ~seed spans =
  let params = params c in
  let n = c.n in
  let nodes =
    Span.with_span spans "setup.lb_alg.network" (fun _ ->
        L.Lb_alg.network params ~rng:(Prng.Rng.of_int seed) ~n)
  in
  let envt = L.Lb_env.saturate ~n ~senders:(senders c) () in
  let monitor = L.Lb_spec.monitor ~dual ~params ~env:envt () in
  let counts =
    Probe.Counts.create ~dual
      ~scheduler:(Some (Radiosim.Scheduler.bernoulli ~seed ~p:c.link_p))
      ()
  in
  let registry = Obs.Metrics.create () in
  let run_id = ref (-1) in
  let (_ : int) =
    Span.with_span spans "engine.run" (fun id ->
        run_id := id;
        let layer = Span.layer spans ~parent:id in
        let d_pre = layer "lb_alg.decide.preamble"
        and d_body = layer "lb_alg.decide.body"
        and a_pre = layer "lb_alg.absorb.preamble"
        and a_body = layer "lb_alg.absorb.body"
        and l_inputs = layer "lb_env.inputs"
        and l_notify = layer "lb_env.notify"
        and l_spec = layer "lb_spec.observe"
        and l_probe = layer "bench.probe" in
        let pre round = L.Lb_alg.is_preamble_round params round in
        let wrap (node : _ P.node) =
          {
            P.decide =
              (fun ~round inputs ->
                let l = if pre round then d_pre else d_body in
                let w0 = Probe.minor_words_here () in
                let t0 = Probe.now_ns () in
                let a = node.P.decide ~round inputs in
                let t1 = Probe.now_ns () in
                let w1 = Probe.minor_words_here () in
                Span.add l ~round ~t0 ~t1 ~words:(w1 - w0);
                a);
            absorb =
              (fun ~round heard ->
                let l = if pre round then a_pre else a_body in
                let w0 = Probe.minor_words_here () in
                let t0 = Probe.now_ns () in
                let outs = node.P.absorb ~round heard in
                let t1 = Probe.now_ns () in
                let w1 = Probe.minor_words_here () in
                Span.add l ~round ~t0 ~t1 ~words:(w1 - w0);
                outs);
          }
        in
        let nodes = Array.map wrap nodes in
        let env = L.Lb_env.env envt in
        let env =
          {
            env with
            Env.inputs =
              (fun ~round ~node ->
                let w0 = Probe.minor_words_here () in
                let t0 = Probe.now_ns () in
                let x = env.Env.inputs ~round ~node in
                let t1 = Probe.now_ns () in
                let w1 = Probe.minor_words_here () in
                Span.add l_inputs ~round ~t0 ~t1 ~words:(w1 - w0);
                x);
            notify =
              (fun ~round ~node outs ->
                let w0 = Probe.minor_words_here () in
                let t0 = Probe.now_ns () in
                env.Env.notify ~round ~node outs;
                let t1 = Probe.now_ns () in
                let w1 = Probe.minor_words_here () in
                Span.add l_notify ~round ~t0 ~t1 ~words:(w1 - w0));
          }
        in
        let observer record =
          let round = record.Radiosim.Trace.round in
          let w0 = Probe.minor_words_here () in
          let t0 = Probe.now_ns () in
          L.Lb_spec.observe monitor record;
          let t1 = Probe.now_ns () in
          let w1 = Probe.minor_words_here () in
          Span.add l_spec ~round ~t0 ~t1 ~words:(w1 - w0);
          Probe.Counts.observe counts record;
          let t2 = Probe.now_ns () in
          Span.add l_probe ~round ~t0:t1 ~t1:t2 ~words:0
        in
        Radiosim.Engine.run ~observer ~metrics:registry ~dual
          ~scheduler:(Radiosim.Scheduler.bernoulli ~seed ~p:c.link_p)
          ~nodes ~env ~rounds:(rounds c) ())
  in
  Span.finish spans;
  let counter name =
    Obs.Metrics.counter_value (Obs.Metrics.counter registry name)
  in
  ( L.Lb_spec.finish monitor,
    !run_id,
    counts,
    (counter "engine.active_edges", counter "scheduler.edges_resolved") )

let rate = Outcome.rate

let run c ~seed ~seconds ~trace =
  let dual = field c ~seed in
  let samples =
    Outcome.repeat ~seconds ~min_reps:1 ~max_reps:50 ~setups:c.setups
      ~setup:(setup c ~seed) (fun _ -> timed_run c ~dual ~seed)
  in
  let outcomes = Outcome.results samples in
  let first = List.hd outcomes in
  let report = first.L.Service.report in
  let module R = L.Lb_spec in
  let bcasts = List.length first.L.Service.env_log in
  let progress_fail = rate report.R.progress_failures report.R.progress_opportunities in
  let reliability_fail =
    rate report.R.reliability_failures report.R.reliability_attempts
  in
  let late = report.R.late_ack_count + report.R.missing_ack_count in
  let gates =
    [
      Outcome.gate "validity violations = 0"
        (report.R.validity_violations = 0)
        (string_of_int report.R.validity_violations);
      Outcome.gate "late + missing acks = 0" (late = 0) (string_of_int late);
      Outcome.gate "progress_fail_rate <= eps1"
        (progress_fail <= c.eps1)
        (Printf.sprintf "%d/%d" report.R.progress_failures
           report.R.progress_opportunities);
      Outcome.gate "reliability_fail_rate <= eps1"
        (reliability_fail <= c.eps1)
        (Printf.sprintf "%d/%d" report.R.reliability_failures
           report.R.reliability_attempts);
      Outcome.gate "every repetition reports the same"
        (List.for_all (fun o -> o.L.Service.report = report) outcomes)
        (Printf.sprintf "%d repetitions" (List.length outcomes));
    ]
  in
  let node_rounds = c.n * rounds c in
  let notes =
    [
      ("rounds", string_of_int (rounds c));
      ("repetitions", string_of_int (List.length outcomes));
    ]
    @ Outcome.timing_notes samples
    @ [
      ("progress failures", Printf.sprintf "%d/%d" report.R.progress_failures report.R.progress_opportunities);
      ("reliability failures", Printf.sprintf "%d/%d" report.R.reliability_failures report.R.reliability_attempts);
      ("acks", string_of_int report.R.ack_count);
      ("bcasts", string_of_int bcasts);
    ]
  in
  let gates, layers, spans =
    if not trace then (gates, [], None)
    else begin
      let spans = Span.create () in
      let traced_report, run_id, counts, (engine_active, engine_resolved) =
        traced c ~dual ~seed spans
      in
      let params = params c in
      let m = Dual.unreliable_count dual in
      let resolved = List.rev counts.Probe.Counts.resolved in
      let fill_ns, active, edges_resolved =
        Span.with_span spans "replay.scheduler" (fun _ ->
            Probe.replay_scheduler
              ~scheduler:(Radiosim.Scheduler.bernoulli ~seed ~p:c.link_p)
              ~m ~rounds:resolved)
      in
      let total_rounds = rounds c in
      let pre_rounds =
        List.length
          (List.filter (L.Lb_alg.is_preamble_round params)
             (List.init total_rounds Fun.id))
      in
      let body_rounds = total_rounds - pre_rounds in
      let per_node_rounds k x = float_of_int x /. float_of_int (max 1 (c.n * k)) in
      let busy = Span.busy_ns spans and words = Span.minor_words spans in
      let traced_ns =
        float_of_int (busy "engine.run") /. float_of_int node_rounds
      in
      let cnt = counts in
      let layers =
        [
          ("lb_alg.decide_ns.preamble", per_node_rounds pre_rounds (busy "lb_alg.decide.preamble"));
          ("lb_alg.decide_ns.body", per_node_rounds body_rounds (busy "lb_alg.decide.body"));
          ("lb_alg.absorb_ns.preamble", per_node_rounds pre_rounds (busy "lb_alg.absorb.preamble"));
          ("lb_alg.absorb_ns.body", per_node_rounds body_rounds (busy "lb_alg.absorb.body"));
          ( "lb_alg.minor_words.preamble",
            per_node_rounds pre_rounds
              (words "lb_alg.decide.preamble" + words "lb_alg.absorb.preamble") );
          ( "lb_alg.minor_words.body",
            per_node_rounds body_rounds
              (words "lb_alg.decide.body" + words "lb_alg.absorb.body") );
          ("lb_env.inputs_ns", per_node_rounds total_rounds (busy "lb_env.inputs"));
          ("lb_env.notify_ns", per_node_rounds total_rounds (busy "lb_env.notify"));
          ("lb_spec.observe_ns_per_round", rate (busy "lb_spec.observe") total_rounds);
          ("lb_spec.minor_words_per_round", rate (words "lb_spec.observe") total_rounds);
          ( "process.ns_per_node_round",
            per_node_rounds total_rounds
              (List.fold_left
                 (fun acc name -> acc + busy name)
                 0
                 [ "lb_alg.decide.preamble"; "lb_alg.decide.body";
                   "lb_alg.absorb.preamble"; "lb_alg.absorb.body" ]) );
          ("engine.self_ns_per_node_round", per_node_rounds total_rounds (Span.self_ns spans run_id));
          ("engine.transmits", Probe.Counts.per_round cnt cnt.transmits);
          ("engine.deliveries", Probe.Counts.per_round cnt cnt.deliveries);
          ("engine.collisions", Probe.Counts.per_round cnt cnt.collisions);
          ("engine.delivery_ratio", rate cnt.deliveries (cnt.deliveries + cnt.collisions));
          ("scheduler.fill_ns_per_round", rate fill_ns total_rounds);
          ("scheduler.edges_resolved", rate edges_resolved total_rounds);
          ("engine.active_edges", rate active total_rounds);
          ("progress_fail_rate", progress_fail);
          ("reliability_fail_rate", reliability_fail);
          ("ack_late_rate", rate late bcasts);
        ]
        @ Outcome.common_layers samples ~dual ~traced_ns
      in
      let gates =
        gates
        @ [
            Outcome.gate "traced composition report = Service.run report"
              (traced_report = report) "";
            Outcome.gate "scheduler replay = engine activation counters"
              (active = engine_active && edges_resolved = engine_resolved)
              (Printf.sprintf "active %d/%d, resolved %d/%d" active engine_active
                 edges_resolved engine_resolved);
            Outcome.gate "single-transmitter listeners = deliveries"
              (cnt.singles = cnt.deliveries)
              (Printf.sprintf "%d/%d" cnt.singles cnt.deliveries);
          ]
      in
      (gates, layers, Some spans)
    end
  in
  Outcome.make ~config:(config_fields c) ~gates
    ~attempted:(report.R.progress_opportunities + bcasts)
    ~failed:(report.R.validity_violations + late)
    ~trace ~e2e:(Outcome.end_to_end samples) ~layers ~notes ~spans
