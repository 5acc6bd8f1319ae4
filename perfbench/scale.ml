(* Workloads scale-dual and scale-sinr: the engine at scale with a
   process layer that does almost nothing.

   Protocol-free [Baseline.Uniform] transmitters on a constant-density
   field of 10^5 nodes (1 node per unit², r = 1), run through
   [Radiosim.Tiled.run ~tiles:2]:

   - scale-dual (E21's settings): dual-graph reception under the sparse
     Bernoulli link scheduler and a seeded crash/restart churn plan, so
     the engine spine, sparse activation, the halo exchange and fault
     transitions dominate.  The only workload on the multi-tile
     dual-graph path.
   - scale-sinr (E24's settings): SINR reception, no faults; the
     scheduler is never consulted.  Measures [Radiosim.Sinr]'s kernels
     and [Tiled]'s SINR scan phase.

   Correctness: an untimed run at tiles=1 and one at tiles=2 must produce
   the same trace digest in every round, as bench/exp_scale.ml checks.

   The end-to-end timings run at tiles=1.  On a shared two-core host the
   tiles=2 wall time of one seed wanders by 10-15% from run to run (the
   second domain competes with whatever else the machine runs), wider
   than any useful regression bound; the tiles=2 path is measured by the
   traced run's [tiled.speedup] instead, which alternates tiles=1 and
   tiles=2 repetitions.  The traced run wraps the process closures at
   tiles=1 only, since the span accumulators are not shared across
   domains. *)

module Dual = Dualgraph.Dual
module M = Localcast.Messages
module Tiled = Radiosim.Tiled
module Plan = Faults.Plan

type config = {
  label : string;
  n : int;
  density : float;
  r : float;
  gray : float;
  transmit_p : float;
  sched_p : float;  (** sparse Bernoulli link scheduler *)
  reception : string;  (** [Radiosim.Reception.of_spec] grammar *)
  faults : string option;  (** [Faults.Plan.of_spec] grammar *)
  tiles : int;  (** tile count of the digest check and [tiled.speedup] *)
  rounds : int;  (** rounds per timed repetition *)
  setups : int;  (** set-ups timed before each repetition; [setup_s] is their median *)
}

let dual_default =
  {
    label = "scale-dual";
    n = 100_000;
    density = 1.0;
    r = 1.5;
    gray = 0.5;
    transmit_p = 0.01;
    sched_p = 0.02;
    reception = "dual";
    faults = Some "churn:0.0005,40";
    tiles = 2;
    rounds = 60;
    setups = 1;
  }

let sinr_default =
  {
    dual_default with
    label = "scale-sinr";
    r = 1.0;
    transmit_p = 0.0002;
    reception = "sinr:alpha=3,beta=1.2,noise=0.02";
    faults = None;
  }

let reception c =
  match Radiosim.Reception.of_spec c.reception with
  | Ok m -> m
  | Error e -> invalid_arg ("Scale: bad reception spec: " ^ e)

let config_fields c =
  let f = Outcome.json_float and i = Outcome.json_int
  and s = Outcome.json_string in
  [
    ("runner", s "Radiosim.Tiled.run");
    ("process", s "Baseline.Uniform");
    ("n", i c.n);
    ("density", f c.density);
    ("r", f c.r);
    ("gray", f c.gray);
    ("transmit_p", f c.transmit_p);
    ("scheduler", s (Printf.sprintf "bernoulli-sparse:%g" c.sched_p));
    ("reception", s (Radiosim.Reception.to_spec (reception c)));
    ("faults", match c.faults with Some spec -> s spec | None -> "null");
    ("tiles", i 1);
    ("parallel_tiles", i c.tiles);
    ("domains", i c.tiles);
    ("rounds", i c.rounds);
    ("setups_per_repetition", i c.setups);
  ]

let field c ~seed =
  let side = sqrt (float_of_int c.n /. c.density) in
  Dualgraph.Geometric.random_field ~rng:(Prng.Rng.of_int seed) ~n:c.n
    ~width:side ~height:side ~r:c.r ~gray_g':c.gray ()

(* Node state is consumed by a run, so every run gets a fresh,
   identically seeded population. *)
let nodes c ~seed =
  let rng = Prng.Rng.of_int (seed + 1) in
  Array.init c.n (fun src ->
      Baseline.Uniform.node ~p:c.transmit_p
        ~message:(M.payload ~src ~uid:0 ())
        ~rng:(Prng.Rng.split rng))

(* A restarted node re-enters with a fresh generator derived from
   (seed, node, round) alone, so runs agree at any tile count. *)
let revive c ~seed ~node ~round =
  let h = Probe.fnv (Probe.fnv (Probe.fnv Probe.fnv_init seed) node) round in
  Baseline.Uniform.node ~p:c.transmit_p
    ~message:(M.payload ~src:node ~uid:(round + 1) ())
    ~rng:(Prng.Rng.of_int h)

let plan c ~seed =
  match c.faults with
  | None -> None
  | Some spec -> (
      match Plan.of_spec ~seed ~n:c.n ~rounds:c.rounds spec with
      | Ok p -> Some p
      | Error e -> invalid_arg ("Scale: bad fault spec: " ^ e))

let scheduler c ~seed = Radiosim.Scheduler.bernoulli_sparse ~seed ~p:c.sched_p

(* One timed set-up: field, process population and fault plan.  Returns
   (field s, total s). *)
let setup c ~seed () =
  let dual, field_s = Probe.time_s (fun () -> field c ~seed) in
  let (), rest_s =
    Probe.time_s (fun () ->
        ignore (Sys.opaque_identity (dual, nodes c ~seed, plan c ~seed)))
  in
  (field_s, field_s +. rest_s)

let run_engine ?observer ?metrics c ~dual ~plan ~seed ~tiles ~nodes =
  let revive =
    Option.map (fun _ ~node ~round -> revive c ~seed ~node ~round) plan
  in
  Tiled.run ?observer ?metrics ?faults:plan ?revive ~tiles
    ~reception:(reception c) ~dual ~scheduler:(scheduler c ~seed) ~nodes
    ~env:(Radiosim.Env.null ~name:c.label ())
    ~rounds:c.rounds ()

(* One timed run; its result is the tile count it ran at. *)
let timed_run c ~dual ~plan ~seed ~tiles =
  let nodes = nodes c ~seed in
  Outcome.time_run ~node_rounds:(c.n * c.rounds) (fun () ->
      if run_engine c ~dual ~plan ~seed ~tiles ~nodes <> c.rounds then
        failwith "Scale: run ended early";
      tiles)

(* Untimed run recording each round's digest, plus reception counts when
   [counts] is given. *)
let digest_run ?counts c ~dual ~plan ~seed ~tiles =
  let digests = ref [] in
  let observer record =
    digests := Probe.round_digest record :: !digests;
    match counts with Some k -> Probe.Counts.observe k record | None -> ()
  in
  let (_ : int) =
    run_engine ~observer c ~dual ~plan ~seed ~tiles ~nodes:(nodes c ~seed)
  in
  List.rev !digests

let mismatches a b =
  let rec go a b acc =
    match (a, b) with
    | x :: a, y :: b -> go a b (if x = y then acc else acc + 1)
    | rest, [] | [], rest -> acc + List.length rest
  in
  go a b 0

(* Replays the SINR reception step over the recorded transmitter sets
   the way [Engine.run] performs it: load the round, then scan every
   active column and read each listener's verdict.  Returns (create s,
   kernel ns, active columns, decoded, drowned). *)
let replay_sinr ~params ~dual ~tx_sets =
  let f, create_s = Probe.time_s (fun () -> Radiosim.Sinr.create ~params dual) in
  let on_air = Bytes.make (Dual.n dual) '\000' in
  let soff = Radiosim.Sinr.slot_off f and snode = Radiosim.Sinr.slot_node f in
  let decoded = ref 0 and drowned = ref 0 and columns = ref 0 in
  let t0 = Probe.now_ns () in
  List.iter
    (fun (_, tx) ->
      Array.iter (fun v -> Bytes.unsafe_set on_air v '\001') tx;
      Radiosim.Sinr.load_round f ~transmitters:tx ~count:(Array.length tx);
      let act, nact = Radiosim.Sinr.active_columns f in
      columns := !columns + nact;
      for a = 0 to nact - 1 do
        let col = act.(a) in
        let lo = soff.(col) and hi = soff.(col + 1) in
        Radiosim.Sinr.scan_slots f ~column:col ~lo ~hi;
        for s = lo to hi - 1 do
          if Bytes.unsafe_get on_air snode.(s) = '\000' then
            match Radiosim.Sinr.verdict f ~jammed:false ~slot:s with
            | -1 -> ()
            | -2 -> incr drowned
            | _ -> incr decoded
        done
      done;
      Array.iter (fun v -> Bytes.unsafe_set on_air v '\000') tx)
    tx_sets;
  let kernel_ns = Probe.now_ns () - t0 in
  (create_s, kernel_ns, !columns, !decoded, !drowned)

(* Replays the engine's fault transitions: a cursor walked round by
   round.  Returns (ns, crashes, restarts). *)
let replay_faults plan ~rounds =
  let crashes = ref 0 and restarts = ref 0 in
  let t0 = Probe.now_ns () in
  let cur = Plan.cursor plan in
  for round = 0 to rounds - 1 do
    Plan.apply cur ~round (fun _ ev ->
        match ev with Plan.Crash -> incr crashes | Plan.Restart -> incr restarts)
  done;
  (Probe.now_ns () - t0, !crashes, !restarts)

(* The traced run: tiles=1, every process closure wrapped. *)
let traced c ~dual ~plan ~seed spans =
  let registry = Obs.Metrics.create () in
  let run_id = ref (-1) in
  let (_ : int) =
    Span.with_span spans "engine.run" (fun id ->
        run_id := id;
        let l_decide = Span.layer spans ~parent:id "process.decide"
        and l_absorb = Span.layer spans ~parent:id "process.absorb" in
        let wrap (node : _ Radiosim.Process.node) =
          {
            Radiosim.Process.decide =
              (fun ~round inputs ->
                let t0 = Probe.now_ns () in
                let a = node.Radiosim.Process.decide ~round inputs in
                let t1 = Probe.now_ns () in
                Span.add l_decide ~round ~t0 ~t1 ~words:0;
                a);
            absorb =
              (fun ~round heard ->
                let t0 = Probe.now_ns () in
                let outs = node.Radiosim.Process.absorb ~round heard in
                let t1 = Probe.now_ns () in
                Span.add l_absorb ~round ~t0 ~t1 ~words:0;
                outs);
          }
        in
        let nodes = Array.map wrap (nodes c ~seed) in
        run_engine ~metrics:registry c ~dual ~plan ~seed ~tiles:1 ~nodes)
  in
  Span.finish spans;
  let counter name =
    Obs.Metrics.counter_value (Obs.Metrics.counter registry name)
  in
  (!run_id, counter)

let rate = Outcome.rate

let run c ~seed ~seconds ~trace =
  let dual = field c ~seed and plan = plan c ~seed in
  (* Untraced timings at tiles=1; the traced run alternates them with
     tiles = c.tiles for the speed-up. *)
  let samples =
    Outcome.repeat ~seconds ~min_reps:(if trace then 2 else 1) ~max_reps:200
      ~setups:c.setups ~setup:(setup c ~seed) (fun k ->
        let tiles = if trace && k mod 2 = 1 then c.tiles else 1 in
        timed_run c ~dual ~plan ~seed ~tiles)
  in
  let at tiles =
    List.filter (fun s -> s.Outcome.rep.Outcome.result = tiles) samples
  in
  let ns_at tiles = Outcome.normalized (at tiles) (fun r -> r.Outcome.ns) in
  let is_sinr = Radiosim.Reception.requires_embedding (reception c) in
  let alive =
    match plan with
    | None -> None
    | Some p -> Some (fun ~node ~round -> Plan.alive p ~node ~round)
  in
  let counts =
    Probe.Counts.create ?alive ~dual
      ~scheduler:(if is_sinr then None else Some (scheduler c ~seed))
      ()
  in
  let one = digest_run ~counts c ~dual ~plan ~seed ~tiles:1 in
  let two = digest_run c ~dual ~plan ~seed ~tiles:c.tiles in
  let failed = mismatches one two in
  let gates =
    [
      Outcome.gate
        (Printf.sprintf "tiles=1 and tiles=%d digests agree in every round" c.tiles)
        (failed = 0 && List.length one = c.rounds)
        (Printf.sprintf "%d mismatched of %d" failed c.rounds);
    ]
  in
  let node_rounds = c.n * c.rounds in
  let notes =
    [
      ("rounds per repetition", string_of_int c.rounds);
      ("repetitions", string_of_int (List.length samples));
    ]
    @ Outcome.timing_notes (at 1)
    @ [
      ( "trace digest",
        Printf.sprintf "%016x"
          (List.fold_left Probe.fnv Probe.fnv_init one land max_int) );
    ]
  in
  let notes =
    if trace then
      notes
      @ [
          ( Printf.sprintf "wall ns per node-round by repetition, tiles=%d" c.tiles,
            Outcome.spread (List.map (fun s -> s.Outcome.rep.Outcome.ns) (at c.tiles)) );
        ]
    else notes
  in
  let gates, layers, spans =
    if not trace then (gates, [], None)
    else begin
      let spans = Span.create () in
      let run_id, counter = traced c ~dual ~plan ~seed spans in
      let cnt = counts in
      let sched_layers, sched_gates =
        if is_sinr then ([], [])
        else begin
          let fill_ns, active, resolved =
            Span.with_span spans "replay.scheduler" (fun _ ->
                Probe.replay_scheduler ~scheduler:(scheduler c ~seed)
                  ~m:(Dual.unreliable_count dual)
                  ~rounds:(List.rev cnt.Probe.Counts.resolved))
          in
          ( [
              ("engine.collisions", Probe.Counts.per_round cnt cnt.collisions);
              ("engine.delivery_ratio", rate cnt.deliveries (cnt.deliveries + cnt.collisions));
              ("scheduler.fill_ns_per_round", rate fill_ns c.rounds);
              ("scheduler.edges_resolved", rate resolved c.rounds);
              ("engine.active_edges", rate active c.rounds);
            ],
            [
              Outcome.gate "scheduler replay = engine activation counters"
                (active = counter "engine.active_edges"
                && resolved = counter "scheduler.edges_resolved")
                (Printf.sprintf "active %d/%d" active (counter "engine.active_edges"));
              Outcome.gate "single-transmitter listeners = deliveries"
                (cnt.singles = cnt.deliveries)
                (Printf.sprintf "%d/%d" cnt.singles cnt.deliveries);
            ] )
        end
      in
      let fault_layers, fault_gates =
        match plan with
        | None -> ([], [])
        | Some p ->
            let ns, crashes, restarts =
              Span.with_span spans "replay.faults" (fun _ ->
                  replay_faults p ~rounds:c.rounds)
            in
            ( [
                ("faults.apply_ns_per_round", rate ns c.rounds);
                ("faults.crashes", float_of_int crashes);
                ("faults.restarts", float_of_int restarts);
              ],
              [
                Outcome.gate "fault replay = engine fault counters"
                  (crashes = counter "faults.crashes"
                  && restarts = counter "faults.restarts")
                  (Printf.sprintf "crashes %d/%d, restarts %d/%d" crashes
                     (counter "faults.crashes") restarts (counter "faults.restarts"));
              ] )
      in
      let sinr_layers, sinr_gates =
        match reception c with
        | Radiosim.Reception.Dual_graph -> ([], [])
        | Radiosim.Reception.Sinr params ->
            let create_s, kernel_ns, columns, decoded, drowned =
              Span.with_span spans "replay.sinr" (fun _ ->
                  replay_sinr ~params ~dual
                    ~tx_sets:(List.rev cnt.Probe.Counts.tx_sets))
            in
            ( [
                ("engine.collisions", rate drowned c.rounds);
                ("engine.delivery_ratio", rate decoded (decoded + drowned));
                ("sinr.create_s", create_s);
                ("sinr.kernel_ns_per_round", rate kernel_ns c.rounds);
                ("sinr.active_columns_per_round", rate columns c.rounds);
                ("sinr.decode_ratio", rate decoded (decoded + drowned));
              ],
              [
                Outcome.gate "SINR replay decodes = engine deliveries"
                  (decoded = cnt.deliveries)
                  (Printf.sprintf "%d/%d" decoded cnt.deliveries);
              ] )
      in
      let busy = Span.busy_ns spans in
      let traced_ns = rate (busy "engine.run") node_rounds in
      let layers =
        [
          ( "process.ns_per_node_round",
            rate (busy "process.decide" + busy "process.absorb") node_rounds );
          ("engine.self_ns_per_node_round", rate (Span.self_ns spans run_id) node_rounds);
          ("engine.transmits", Probe.Counts.per_round cnt cnt.transmits);
          ("engine.deliveries", Probe.Counts.per_round cnt cnt.deliveries);
          ("tiled.speedup", ns_at 1 /. ns_at c.tiles);
        ]
        @ Outcome.common_layers (at 1) ~dual ~traced_ns
        @ sched_layers @ fault_layers @ sinr_layers
      in
      (gates @ sched_gates @ fault_gates @ sinr_gates, layers, Some spans)
    end
  in
  Outcome.make ~config:(config_fields c) ~gates ~attempted:c.rounds ~failed
    ~trace ~e2e:(Outcome.end_to_end (at 1)) ~layers ~notes ~spans
