(* Metric values and the catalog of every metric the benchmark reports.

   The catalog is the single list BENCHMARK.json mirrors (the test suite
   checks the two agree): the untraced run prints exactly the end-to-end
   metrics, the traced run exactly the per-layer ones.  A per-layer
   metric of a layer a workload does not run reads 0 on that workload
   (README.md lists which layer each workload exercises). *)

type t = { name : string; unit_ : string; value : float }

let v name unit_ value = { name; unit_; value }

type spec = {
  sname : string;
  sunit : string;
  better : [ `Lower | `Higher ];
  sim : bool;
      (** a simulated quantity: a pure function of the workload and its
          seed, which must repeat exactly from run to run *)
}

let spec sname sunit better = { sname; sunit; better; sim = false }
let sim sname sunit better = { sname; sunit; better; sim = true }

(* Host-time metrics are built with [spec], simulated ones with [sim]. *)
let end_to_end =
  [
    spec "setup_s" "s" `Lower;
    spec "ns_per_node_round" "ns" `Lower;
    spec "minor_words_per_node_round" "words" `Lower;
    spec "peak_rss_mb" "MiB" `Lower;
  ]

let per_layer =
  [
    (* localcast.lb_alg — per node-round, split by SeedAlg preamble / body *)
    spec "lb_alg.decide_ns.preamble" "ns" `Lower;
    spec "lb_alg.decide_ns.body" "ns" `Lower;
    spec "lb_alg.absorb_ns.preamble" "ns" `Lower;
    spec "lb_alg.absorb_ns.body" "ns" `Lower;
    spec "lb_alg.minor_words.preamble" "words" `Lower;
    spec "lb_alg.minor_words.body" "words" `Lower;
    (* localcast.lb_env — per node-round *)
    spec "lb_env.inputs_ns" "ns" `Lower;
    spec "lb_env.notify_ns" "ns" `Lower;
    (* localcast.lb_spec — per round *)
    spec "lb_spec.observe_ns_per_round" "ns" `Lower;
    spec "lb_spec.minor_words_per_round" "words" `Lower;
    (* radiosim.process — whatever process the workload runs *)
    spec "process.ns_per_node_round" "ns" `Lower;
    (* radiosim.engine *)
    spec "engine.self_ns_per_node_round" "ns" `Lower;
    sim "engine.transmits" "count" `Lower;
    sim "engine.deliveries" "count" `Higher;
    sim "engine.collisions" "count" `Lower;
    sim "engine.delivery_ratio" "ratio" `Higher;
    (* radiosim.scheduler *)
    spec "scheduler.fill_ns_per_round" "ns" `Lower;
    sim "scheduler.edges_resolved" "count" `Lower;
    sim "engine.active_edges" "count" `Lower;
    (* faults *)
    spec "faults.apply_ns_per_round" "ns" `Lower;
    sim "faults.crashes" "count" `Lower;
    sim "faults.restarts" "count" `Lower;
    (* radiosim.tiled *)
    spec "tiled.speedup" "x" `Higher;
    (* radiosim.sinr *)
    spec "sinr.create_s" "s" `Lower;
    spec "sinr.kernel_ns_per_round" "ns" `Lower;
    sim "sinr.active_columns_per_round" "count" `Lower;
    sim "sinr.decode_ratio" "ratio" `Higher;
    (* macapps.serve over localcast.mac *)
    spec "serve.tick_ns_per_round" "ns" `Lower;
    spec "serve.on_recv_ns" "ns" `Lower;
    spec "serve.on_ack_ns" "ns" `Lower;
    sim "mac.request_accept_ratio" "ratio" `Higher;
    sim "serve.relay_drop_ratio" "ratio" `Lower;
    sim "serve.stale_skip_ratio" "ratio" `Lower;
    sim "serve.mean_queue_depth" "count" `Lower;
    spec "mac.self_ns_per_node_round" "ns" `Lower;
    (* dualgraph *)
    spec "dualgraph.build_s" "s" `Lower;
    sim "dualgraph.delta" "count" `Lower;
    sim "dualgraph.delta_prime" "count" `Lower;
    (* OCaml runtime, over one untraced timed run *)
    spec "gc.minor_collections" "count" `Lower;
    spec "gc.major_collections" "count" `Lower;
    spec "gc.promoted_words_per_node_round" "words" `Lower;
    (* simulated outcomes: deterministic for a given seed *)
    sim "progress_fail_rate" "ratio" `Lower;
    sim "reliability_fail_rate" "ratio" `Lower;
    sim "ack_late_rate" "ratio" `Lower;
    sim "goodput_per_kround" "1/kround" `Higher;
    sim "delivery_p50_rounds" "rounds" `Lower;
    sim "delivery_p90_rounds" "rounds" `Lower;
    sim "loss_rate" "ratio" `Lower;
    (* the host: raw wall time and the slowdown it was divided by *)
    spec "wall_ns_per_node_round" "ns" `Lower;
    spec "host.slowdown" "x" `Lower;
    (* the tracing itself *)
    spec "trace.ns_per_node_round" "ns" `Lower;
    spec "trace.overhead_ns_per_node_round" "ns" `Lower;
  ]

(* The metrics of one tier, in catalog order.  [values] gives the value
   of each metric the workload measured; every other catalog entry reads
   0.  Raises [Invalid_argument] on a name outside the tier's catalog, so
   a typo cannot silently drop a measurement. *)
let complete catalog values =
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun s -> s.sname = name) catalog) then
        invalid_arg ("Metric.complete: not in the catalog: " ^ name))
    values;
  List.map
    (fun s ->
      let value =
        match List.assoc_opt s.sname values with Some x -> x | None -> 0.0
      in
      v s.sname s.sunit value)
    catalog

let number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let to_json metrics =
  "{"
  ^ String.concat ","
      (List.map
         (fun m ->
           Printf.sprintf "\"%s\":{\"value\":%s,\"unit\":\"%s\"}"
             (Obs.Json.escape m.name) (number m.value) (Obs.Json.escape m.unit_))
         metrics)
  ^ "}"
