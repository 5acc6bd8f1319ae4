(* perfbench: run one workload and print its metrics.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--out-dir DIR] [--git-rev REV] [--source-digest HEX]
              [--flambda BOOL]

   Prints a manifest line, the workload's results and gates, and as its
   last line one JSON object {correct, attempted, failed, metrics}.  With
   --trace 1 the spans of the traced run are written, manifest first, to
   DIR/NAME-seedN.spans.jsonl.  Exits 1 when a correctness gate fails,
   2 on bad arguments.  run.py builds this program and passes the
   provenance fields it can only learn outside the process. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--out-dir DIR] [--git-rev REV] [--source-digest HEX] [--flambda BOOL]";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all));
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | key :: value :: rest
      when String.length key > 2 && String.sub key 0 2 = "--" ->
        parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get key = List.assoc_opt key opts in
  let known =
    [ "workload"; "seed"; "seconds"; "trace"; "out-dir"; "git-rev";
      "source-digest"; "flambda" ]
  in
  List.iter (fun (k, _) -> if not (List.mem k known) then usage ()) opts;
  let workload =
    match Option.bind (get "workload") Workloads.find with
    | Some w -> w
    | None -> usage ()
  in
  let seed = match Option.bind (get "seed") int_of_string_opt with Some s -> s | None -> usage () in
  let seconds =
    match Option.bind (get "seconds") float_of_string_opt with
    | Some s when s > 0.0 -> s
    | _ -> usage ()
  in
  let trace =
    match get "trace" with Some "0" -> false | Some "1" -> true | _ -> usage ()
  in
  let str key default = Option.value (get key) ~default in
  let outcome = workload.Workloads.run ~seed ~seconds ~trace in
  let config = outcome.Outcome.config in
  let field key = Option.value (List.assoc_opt key config) ~default:"1" in
  let manifest =
    Outcome.object_json
      [
        ("benchmark", Outcome.json_string "perfbench");
        ("workload", Outcome.json_string workload.Workloads.name);
        ("seed", Outcome.json_int seed);
        ("seconds", Outcome.json_float seconds);
        ("trace", if trace then "true" else "false");
        ("git_rev", Outcome.json_string (str "git-rev" "unknown"));
        ("source_digest", Outcome.json_string (str "source-digest" "unknown"));
        ("ocaml", Outcome.json_string Sys.ocaml_version);
        ("flambda", Outcome.json_string (str "flambda" "unknown"));
        ("nproc", Outcome.json_int (Domain.recommended_domain_count ()));
        ("tiles", field "tiles");
        ("domains", field "domains");
        ("config", Outcome.object_json config);
      ]
  in
  print_endline ("manifest " ^ manifest);
  List.iter (fun (k, v) -> Printf.printf "result %s: %s\n" k v) outcome.Outcome.notes;
  List.iter
    (fun g ->
      Printf.printf "gate %s: %s%s\n" g.Outcome.what
        (if g.Outcome.ok then "pass" else "FAIL")
        (if g.Outcome.detail = "" then "" else " (" ^ g.Outcome.detail ^ ")"))
    outcome.Outcome.gates;
  (match outcome.Outcome.spans with
  | None -> ()
  | Some spans ->
      let dir = str "out-dir" ".perfbench-out" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path =
        Filename.concat dir
          (Printf.sprintf "%s-seed%d.spans.jsonl" workload.Workloads.name seed)
      in
      Span.write spans ~path ~manifest;
      Printf.printf "spans written to %s\n" path);
  let correct = Outcome.correct outcome in
  print_endline
    (Outcome.object_json
       [
         ("correct", if correct then "true" else "false");
         ("attempted", Outcome.json_int outcome.Outcome.attempted);
         ("failed", Outcome.json_int outcome.Outcome.failed);
         ("metrics", Metric.to_json outcome.Outcome.metrics);
       ]);
  exit (if correct then 0 else 1)
