(* Experiment OBS: the observability layer exercised end-to-end.

   One instrumented LB service run (saturated senders, random field)
   with the full pipeline attached — event sink, metrics registry and
   the spec monitor's violation log — then three checks with teeth:

   + the monitor's t_ack violations (Late_ack + Missing_ack) must equal
     its report's late + missing acks, and its Progress_miss violations
     the report's progress failures;
   + the emitted [lb.ack_latency] instrument must agree with the report
     (ack count and max latency);
   + the exported JSONL stream must parse back to exactly the events
     the sink retained.

   Any disagreement is a [failwith]: this group runs in quick mode under
   the bench-smoke alias, so CI fails if the violation log, the
   instruments and the report ever drift apart.  The run also writes the
   BENCH_obs.json metrics artifact and the BENCH_obs_events.jsonl event
   stream — the files the worked example in docs/OBSERVABILITY.md
   walks through. *)

open Core
open Exp_common
module Dual = Dualgraph.Dual
module Params = Localcast.Params
module L = Localcast
module S = Localcast.Lb_spec
module Table = Stats.Table

let count_kind violations pred =
  List.length (List.filter (fun v -> pred v.S.kind) violations)

let run () =
  section "OBS: observability layer (event stream, metrics, spec violations)";
  note
    "One instrumented run: engine + LBAlg emit into a sink; the spec\n\
     monitor's violations and instruments are cross-checked against its\n\
     report.";
  let dual = random_field ~seed:(master_seed + 41) ~n:48 () in
  let params = Params.of_dual ~eps1:0.2 ~tack_phases:1 dual in
  let phases = if !quick then 3 else 5 in
  let rounds = phases * params.Params.phase_len in
  let n = Dual.n dual in
  (* Size the ring to the whole run so the JSONL export is the complete
     stream: per round at most n transmit/deliver/collision events plus
     the protocol events, bracketed by round_start/round_end. *)
  let capacity = max 65536 (rounds * (2 * n + 8)) in
  let sink = Obs.Sink.create ~capacity () in
  let metrics = Obs.Metrics.create () in
  let senders = [ 0; 1; 2; 3 ] in
  let outcome =
    L.Service.run ~sink ~metrics ~dual ~params ~senders ~phases
      ~seed:(master_seed + 42) ()
  in
  let report = outcome.L.Service.report in
  let violations = outcome.L.Service.violations in
  let stream_acks, stream_max_latency =
    match Obs.Metrics.summary (Obs.Metrics.histogram metrics "lb.ack_latency") with
    | Some s -> (s.Obs.Metrics.count, int_of_float s.Obs.Metrics.max)
    | None -> (0, 0)
  in
  let deadline_misses =
    count_kind violations (function
      | S.Late_ack _ | S.Missing_ack _ -> true
      | _ -> false)
  in
  let progress_misses =
    count_kind violations (function S.Progress_miss _ -> true | _ -> false)
  in
  let delta_breaches =
    count_kind violations (function S.Delta_breach _ -> true | _ -> false)
  in
  let table =
    Table.create
      ~title:"OBS: violations and instruments vs the Lb_spec report (same run)"
      ~columns:[ "quantity"; "observed"; "lb_spec" ]
  in
  let row name a b = Table.add_row table [ name; string_of_int a; string_of_int b ] in
  row "acks" stream_acks report.S.ack_count;
  row "max ack latency" stream_max_latency report.S.max_ack_latency;
  row "t_ack deadline misses" deadline_misses
    (report.S.late_ack_count + report.S.missing_ack_count);
  row "progress misses" progress_misses report.S.progress_failures;
  Table.add_row table [ "delta breaches"; string_of_int delta_breaches; "-" ];
  Table.print table;
  if stream_acks <> report.S.ack_count then
    failwith "exp_obs: lb.ack_latency count disagrees with the report";
  if stream_max_latency <> report.S.max_ack_latency then
    failwith "exp_obs: lb.ack_latency max disagrees with the report";
  if deadline_misses <> report.S.late_ack_count + report.S.missing_ack_count then
    failwith "exp_obs: t_ack violations disagree with the report's late + missing";
  if progress_misses <> report.S.progress_failures then
    failwith "exp_obs: progress-miss violations disagree with the report";
  (* Artifacts: the per-phase metric snapshots and the raw event stream. *)
  let json_path = "BENCH_obs.json" in
  Obs.Metrics.write_json ~path:json_path ~git_rev:(git_rev ())
    outcome.L.Service.obs_snapshots;
  let jsonl_path = "BENCH_obs_events.jsonl" in
  Obs.Sink.save_jsonl sink ~path:jsonl_path;
  (* Round-trip the export: teeth for the JSONL schema. *)
  (match Obs.Sink.load_jsonl ~path:jsonl_path with
  | Error e -> failwith ("exp_obs: exported JSONL fails to parse back: " ^ e)
  | Ok events ->
      if List.length events <> Obs.Sink.length sink then
        failwith "exp_obs: JSONL round-trip lost events";
      List.iteri
        (fun i ev ->
          if not (Obs.Event.equal ev (Obs.Sink.get sink i)) then
            failwith "exp_obs: JSONL round-trip changed an event")
        events);
  if Obs.Sink.dropped sink > 0 then
    failwith "exp_obs: sink wrapped; capacity estimate too small";
  note
    "%d events emitted (%d retained), %d phase snapshots, %d violations; \
     wrote %s and %s (git rev %s)"
    (Obs.Sink.emitted sink) (Obs.Sink.length sink)
    (List.length outcome.L.Service.obs_snapshots)
    (List.length violations) json_path jsonl_path (git_rev ())
