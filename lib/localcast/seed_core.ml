type status =
  | Active
  | Leader of int
  | Inactive

type t = {
  params : Params.seed;
  id : int;
  rng : Prng.Rng.t;
  initial_seed : Prng.Bitstring.t Lazy.t;
      (** drawn from a copy of [rng] taken before [rng] skipped past it *)
  mutable status : status;
  mutable decision : Messages.seed_announcement option;
  mutable pending_event : Messages.seed_announcement option;
}

(* Only leaders and nodes still active at the end use their own seed;
   everyone else adopts a neighbour's.  So the seed's κ draws are
   skipped in O(1) now and replayed from a saved copy of the generator
   when, and if, the seed is first used. *)
let create params ~id ~rng =
  let kappa = params.Params.kappa in
  let seed_rng = Prng.Rng.copy rng in
  Prng.Rng.skip rng kappa;
  {
    params;
    id;
    rng;
    initial_seed = lazy (Prng.Bitstring.random seed_rng kappa);
    status = Active;
    decision = None;
    pending_event = None;
  }

let initial_seed t = Lazy.force t.initial_seed
let status t = t.status
let duration t = Params.seed_duration t.params

let decide t announcement =
  assert (t.decision = None);
  t.decision <- Some announcement;
  t.pending_event <- Some announcement

let phase_of t local_round = (local_round / t.params.Params.phase_len) + 1

let decide_action t ~local_round =
  let params = t.params in
  if local_round < 0 || local_round >= duration t then
    invalid_arg "Seed_core.decide_action: local round out of range";
  let h = phase_of t local_round in
  let phase_start = local_round mod params.Params.phase_len = 0 in
  (* A leader's tenure ends with its phase. *)
  (match t.status with
  | Leader h' when phase_start && h > h' -> t.status <- Inactive
  | _ -> ());
  (match t.status with
  | Active when phase_start ->
      let p = 1.0 /. float_of_int (1 lsl (params.Params.phases - h + 1)) in
      if Prng.Rng.bernoulli t.rng p then begin
        t.status <- Leader h;
        decide t { Messages.owner = t.id; seed = initial_seed t }
      end
  | Active | Leader _ | Inactive -> ());
  match t.status with
  | Leader _ when Prng.Rng.bernoulli t.rng params.Params.broadcast_prob ->
      Radiosim.Process.Transmit
        (Messages.Seed_msg { Messages.owner = t.id; seed = initial_seed t })
  | Leader _ | Active | Inactive -> Radiosim.Process.Listen

let absorb t ~local_round:_ received =
  match (t.status, received) with
  | Active, Some (Messages.Seed_msg announcement) ->
      t.status <- Inactive;
      decide t announcement
  | (Active | Leader _ | Inactive), _ -> ()

let take_event t =
  let event = t.pending_event in
  t.pending_event <- None;
  event

let finalize t =
  match t.status with
  | Active ->
      t.status <- Inactive;
      decide t { Messages.owner = t.id; seed = initial_seed t }
  | Leader _ | Inactive -> ()

let decision t = t.decision
