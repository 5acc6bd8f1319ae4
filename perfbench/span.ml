(* In-memory spans for the traced run.

   A span has a name, a start, an end and a parent.  Whole phases (a run,
   a replay, a set-up step) are plain spans.  Per-node calls — a
   process's [decide], an environment's [inputs] — are far too many to
   keep one by one, so each wrapped callback feeds a [layer] accumulator
   that folds the calls of one round into a single span under the run
   span: its start is the round's first call, its end the last call's
   end, and [busy] the time actually spent inside the calls.  Self time
   of a span is its busy time minus that of its children.

   Recording is allocation-free on the call path: a layer is an all-int
   record and a span record is only allocated when a round closes, after
   the call's own clock and allocation readings were taken. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  round : int;  (** -1 for a span that is not a per-round aggregate *)
  start_ns : int;
  stop_ns : int;
  busy_ns : int;  (** [stop - start] for a plain span; summed calls for an aggregate *)
  calls : int;
  minor_words : int;  (** allocation inside the calls (this domain) *)
}

type t = {
  origin : int;
  mutable next_id : int;
  mutable spans : span list;
  mutable layers : layer list;
}

and layer = {
  owner : t;
  lname : string;
  lparent : int;
  mutable round : int;
  mutable first : int;
  mutable last : int;
  mutable busy : int;
  mutable ncalls : int;
  mutable words : int;
}

let create () =
  { origin = Probe.now_ns (); next_id = 0; spans = []; layers = [] }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

(* Runs [f] under a plain root span; [f] receives the span's id so it
   can parent layers to it. *)
let with_span t name f =
  let id = fresh_id t in
  let w0 = Probe.minor_words_here () in
  let start = Probe.now_ns () in
  let x = f id in
  let stop = Probe.now_ns () in
  let w1 = Probe.minor_words_here () in
  t.spans <-
    {
      id;
      name;
      parent = -1;
      round = -1;
      start_ns = start - t.origin;
      stop_ns = stop - t.origin;
      busy_ns = stop - start;
      calls = 1;
      minor_words = w1 - w0;
    }
    :: t.spans;
  x

let layer t ~parent name =
  let l =
    {
      owner = t;
      lname = name;
      lparent = parent;
      round = -1;
      first = 0;
      last = 0;
      busy = 0;
      ncalls = 0;
      words = 0;
    }
  in
  t.layers <- l :: t.layers;
  l

let flush l =
  if l.ncalls > 0 then begin
    let t = l.owner in
    t.spans <-
      {
        id = fresh_id t;
        name = l.lname;
        parent = l.lparent;
        round = l.round;
        start_ns = l.first - t.origin;
        stop_ns = l.last - t.origin;
        busy_ns = l.busy;
        calls = l.ncalls;
        minor_words = l.words;
      }
      :: t.spans;
    l.busy <- 0;
    l.ncalls <- 0;
    l.words <- 0
  end

(* Record one call of round [round] that ran from [t0] to [t1] and
   allocated [words].  Called after the call's readings were taken, so
   the span allocated when a round closes is charged to nobody's call. *)
let add l ~round ~t0 ~t1 ~words =
  if round <> l.round then begin
    flush l;
    l.round <- round;
    l.first <- t0
  end;
  l.last <- t1;
  l.busy <- l.busy + (t1 - t0);
  l.ncalls <- l.ncalls + 1;
  l.words <- l.words + words

(* Close every layer's open round.  Call once the traced run is over. *)
let finish t = List.iter flush t.layers

let spans t = List.rev t.spans

let find t name = List.filter (fun s -> s.name = name) t.spans

let busy_ns t name = List.fold_left (fun acc s -> acc + s.busy_ns) 0 (find t name)
let calls t name = List.fold_left (fun acc s -> acc + s.calls) 0 (find t name)

let minor_words t name =
  List.fold_left (fun acc s -> acc + s.minor_words) 0 (find t name)

(* Busy time of the span minus the busy time of its direct children. *)
let self_ns t id =
  List.fold_left
    (fun acc s ->
      if s.id = id then acc + s.busy_ns
      else if s.parent = id then acc - s.busy_ns
      else acc)
    0 t.spans

let span_json s =
  Printf.sprintf
    "{\"id\":%d,\"name\":\"%s\",\"parent\":%d,\"round\":%d,\"start_ns\":%d,\"end_ns\":%d,\"busy_ns\":%d,\"calls\":%d,\"minor_words\":%d}"
    s.id (Obs.Json.escape s.name) s.parent s.round s.start_ns s.stop_ns s.busy_ns
    s.calls s.minor_words

(* One JSON object per line: the manifest first, then every span in
   creation order. *)
let write t ~path ~manifest =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc manifest;
      output_char oc '\n';
      List.iter
        (fun s ->
          output_string oc (span_json s);
          output_char oc '\n')
        (spans t))
