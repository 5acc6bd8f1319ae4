(* What one workload run hands back to the command line: its correctness
   gates, the operations it attempted and failed, its metrics, and the
   spans of a traced run. *)

type gate = { what : string; ok : bool; detail : string }

let gate what ok detail = { what; ok; detail }

type t = {
  config : (string * string) list;
      (** the workload's full configuration, as JSON-valued fields *)
  gates : gate list;
  attempted : int;
  failed : int;
  metrics : Metric.t list;
  notes : (string * string) list;
      (** human-readable results printed above the JSON line *)
  spans : Span.t option;  (** the traced run's spans *)
}

let correct o =
  List.for_all (fun g -> g.ok) o.gates
  && List.for_all (fun m -> Float.is_finite m.Metric.value) o.metrics

(* The untraced run reports the end-to-end tier, the traced run the
   per-layer tier. *)
let make ~config ~gates ~attempted ~failed ~trace ~e2e ~layers ~notes ~spans =
  let metrics =
    if trace then Metric.complete Metric.per_layer layers
    else Metric.complete Metric.end_to_end e2e
  in
  { config; gates; attempted; failed; metrics; notes; spans }

(* [num / den] as a float, 0 when nothing was attempted. *)
let rate num den = float_of_int num /. float_of_int (max 1 den)

let json_int = string_of_int
let json_float x = Metric.number x
let json_string s = "\"" ^ Obs.Json.escape s ^ "\""

let object_json fields =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> json_string k ^ ":" ^ v) fields)
  ^ "}"

(* One timed call of a workload's runner, per simulated node-round. *)
type 'a timed = {
  ns : float;  (** wall time *)
  words : float;  (** minor allocation, all domains *)
  promoted : float;  (** words promoted to the major heap *)
  gc : Probe.gc;  (** GC counters over the whole call *)
  result : 'a;
}

let time_run ~node_rounds f =
  let g0 = Probe.gc () in
  let t0 = Probe.now_ns () in
  let result = f () in
  let t1 = Probe.now_ns () in
  let gc = Probe.gc_diff g0 (Probe.gc ()) in
  let per x = x /. float_of_int node_rounds in
  {
    ns = per (float_of_int (t1 - t0));
    words = per gc.Probe.minor_words;
    promoted = per gc.Probe.promoted_words;
    gc;
    result;
  }

type 'r sample = {
  setups : (float * float) list;  (** (field s, total s) of each set-up *)
  slowdown : float;  (** [Probe.slowdown] just before the repetition *)
  rep : 'r;
}

(* Repeat the timed unit [rep] (given its index) while another
   repetition of the average length still fits in [seconds], at least
   [min_reps] and at most [max_reps] times.  Each iteration first times
   [setups] calls of [setup] (returning field and total seconds), so
   set-up is sampled across the whole run like the repetitions; then a
   full major collection starts the repetition from the same heap state,
   and the host's slowdown is measured next to it.  Nothing but [rep]
   and [setup] is timed. *)
let repeat ~seconds ~min_reps ~max_reps ~setups ~setup rep =
  let t0 = Probe.now_ns () in
  let elapsed () = float_of_int (Probe.now_ns () - t0) /. 1e9 in
  let rec go acc k =
    let spent = elapsed () in
    if
      k >= max_reps
      || (k >= min_reps && spent +. (spent /. float_of_int (max 1 k)) > seconds)
    then List.rev acc
    else begin
      let timed_setups = List.init setups (fun _ -> setup ()) in
      Gc.full_major ();
      let slowdown = Probe.slowdown () in
      let rep = rep k in
      go ({ setups = timed_setups; slowdown; rep } :: acc) (k + 1)
    end
  in
  go [] 0

(* Medians over a run's samples, at the host's usual speed: each timing
   is divided by the slowdown measured beside it. *)
let normalized samples f =
  Probe.median (List.map (fun s -> f s.rep /. s.slowdown) samples)

let wall samples f = Probe.median (List.map (fun s -> f s.rep) samples)
let slowdown samples = Probe.median (List.map (fun s -> s.slowdown) samples)

let setup_median pick samples =
  Probe.median
    (List.concat_map
       (fun s -> List.map (fun st -> pick st /. s.slowdown) s.setups)
       samples)

let setup_s samples = setup_median snd samples
let field_s samples = setup_median fst samples
let results samples = List.map (fun s -> s.rep.result) samples

(* "min / median / max" of a repetition series, for the report lines. *)
let spread xs =
  Printf.sprintf "%.4g / %.4g / %.4g (%d)"
    (List.fold_left Float.min Float.infinity xs)
    (Probe.median xs)
    (List.fold_left Float.max Float.neg_infinity xs)
    (List.length xs)

let timing_notes samples =
  [
    ( "wall ns per node-round by repetition",
      spread (List.map (fun s -> s.rep.ns) samples) );
    ("host slowdown by repetition", spread (List.map (fun s -> s.slowdown) samples));
  ]

(* The end-to-end metrics, the same on every workload. *)
let end_to_end samples =
  [
    ("setup_s", setup_s samples);
    ("ns_per_node_round", normalized samples (fun r -> r.ns));
    ("minor_words_per_node_round", wall samples (fun r -> r.words));
    ("peak_rss_mb", Probe.peak_rss_mb ());
  ]

(* The per-layer metrics every workload reports: its field, the GC over
   the untraced repetitions, the host, and the cost of tracing
   ([traced_ns]: the traced run's wall ns per node-round). *)
let common_layers samples ~dual ~traced_ns =
  let module Dual = Dualgraph.Dual in
  let med f = Probe.median (List.map (fun s -> f s.rep) samples) in
  let wall_ns = wall samples (fun r -> r.ns) in
  [
    ("dualgraph.build_s", field_s samples);
    ("dualgraph.delta", float_of_int (Dual.delta dual));
    ("dualgraph.delta_prime", float_of_int (Dual.delta' dual));
    ("gc.minor_collections", med (fun r -> float_of_int r.gc.Probe.minor_collections));
    ("gc.major_collections", med (fun r -> float_of_int r.gc.Probe.major_collections));
    ("gc.promoted_words_per_node_round", med (fun r -> r.promoted));
    ("trace.ns_per_node_round", traced_ns);
    ("trace.overhead_ns_per_node_round", traced_ns -. wall_ns);
    ("wall_ns_per_node_round", wall_ns);
    ("host.slowdown", slowdown samples);
  ]
