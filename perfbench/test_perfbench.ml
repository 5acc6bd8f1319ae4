(* The benchmark's own tests, on reduced-size runs of every workload:

   - the untraced run reports exactly the end-to-end metrics and the
     traced run exactly the per-layer metrics, each by name, with its
     unit and a finite value, and every correctness gate passes — which
     includes each traced composition matching its runner;
   - two traced runs give bit-identical simulated metrics;
   - the metric catalog and BENCHMARK.json agree. *)

open Perfbench

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end

let names ms = List.map (fun m -> m.Metric.name) ms

let check_tier ~label catalog (o : Outcome.t) =
  check
    (label ^ ": metric names are the catalog's")
    (names o.Outcome.metrics = List.map (fun s -> s.Metric.sname) catalog);
  List.iter2
    (fun (m : Metric.t) (s : Metric.spec) ->
      check (label ^ ": unit of " ^ m.name) (m.unit_ = s.sunit && m.unit_ <> "");
      check (label ^ ": finite " ^ m.name) (Float.is_finite m.value))
    o.metrics catalog;
  List.iter
    (fun (g : Outcome.gate) -> check (label ^ ": gate " ^ g.what ^ " " ^ g.detail) g.ok)
    o.gates;
  check (label ^ ": attempted >= 1") (o.attempted >= 1);
  check (label ^ ": failed = 0") (o.failed = 0)

let traced_composition_gated (o : Outcome.t) =
  List.exists
    (fun (g : Outcome.gate) ->
      let prefix = "traced composition report" in
      String.length g.what >= String.length prefix
      && String.sub g.what 0 (String.length prefix) = prefix)
    o.gates

let test_workload (w : Workloads.t) =
  let run trace = w.run ~seed:7 ~seconds:0.01 ~trace in
  check_tier ~label:(w.name ^ " untraced") Metric.end_to_end (run false);
  let a = run true and b = run true in
  check_tier ~label:(w.name ^ " traced") Metric.per_layer a;
  List.iter2
    (fun (x : Metric.t) (s : Metric.spec) ->
      if s.sim then
        check
          (Printf.sprintf "%s: %s repeats (%h vs %h)" w.name x.name x.value
             (List.find (fun (y : Metric.t) -> y.name = x.name) b.metrics).value)
          (Int64.equal (Int64.bits_of_float x.value)
             (Int64.bits_of_float
                (List.find (fun (y : Metric.t) -> y.name = x.name) b.metrics).value)))
    a.metrics Metric.per_layer;
  if w.name = "lb-field" || w.name = "serve-mac" then
    check (w.name ^ ": traced composition is compared with its runner")
      (traced_composition_gated a);
  Printf.printf "ok %s\n%!" w.name

(* BENCHMARK.json lists every catalog metric, in order, with its unit
   and direction. *)
let test_benchmark_json () =
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  let entry =
    Str.regexp
      {|"name": "\([^"]*\)",[^"]*"unit": "\([^"]*\)",[^"]*"better": "\([^"]*\)"|}
  in
  let rec scan pos acc =
    match Str.search_forward entry text pos with
    | exception Not_found -> List.rev acc
    | _ ->
        let e = (Str.matched_group 1 text, Str.matched_group 2 text, Str.matched_group 3 text) in
        scan (Str.match_end ()) (e :: acc)
  in
  let listed = scan 0 [] in
  let expected =
    List.map
      (fun s ->
        (s.Metric.sname, s.Metric.sunit, match s.Metric.better with `Lower -> "lower" | `Higher -> "higher"))
      (Metric.end_to_end @ Metric.per_layer)
  in
  check "BENCHMARK.json lists the catalog" (listed = expected);
  let workloads = List.map (fun (w : Workloads.t) -> w.name) Workloads.all in
  let mentions needle =
    match Str.search_forward (Str.regexp_string needle) text 0 with
    | _ -> true
    | exception Not_found -> false
  in
  List.iter
    (fun name ->
      check ("BENCHMARK.json names workload " ^ name)
        (mentions ("\"name\": \"" ^ name ^ "\"")))
    workloads

let () =
  test_benchmark_json ();
  List.iter test_workload Workloads.small;
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
