module Dual = Dualgraph.Dual
module Graph = Dualgraph.Graph

(* Per-node incidence of unreliable edges in flat CSR form, shared with
   the dual graph that precomputed it: node [u]'s incident unreliable
   edges occupy slots [off.(u) .. off.(u+1) - 1]. *)
type incidence = {
  inc_off : int array;
  inc_nbr : int array;
  inc_edge : int array;
}

let unreliable_incidence dual =
  let inc_off, inc_nbr, inc_edge = Dual.unreliable_incidence_csr dual in
  { inc_off; inc_nbr; inc_edge }

let run ?observer ?stop ?sink ?metrics ?faults ?revive
    ?(reception = Reception.dual_graph) ~dual ~scheduler ~nodes ~env ~rounds ()
    =
  Kernel.run ~name:"Engine.run" ~tiles:1
    ~activation:(Kernel.oblivious scheduler ~m:(Dual.unreliable_count dual))
    ?observer ?stop ?sink ?metrics ?faults ?revive ~reception ~dual ~nodes ~env
    ~rounds ()

let run_adaptive ?observer ?stop ?sink ?metrics ?faults ?revive
    ?(reception = Reception.dual_graph) ~dual ~adversary ~nodes ~env ~rounds ()
    =
  (* The adaptive adversary's whole power is choosing which unreliable
     edges fire after seeing the transmitter set; SINR ignores those
     edges entirely, so combining the two would silently run a plain
     SINR simulation while claiming adversarial semantics. *)
  (match reception with
  | Reception.Dual_graph -> ()
  | Reception.Sinr _ ->
      invalid_arg
        "Engine.run_adaptive: the SINR reception model does not consult the \
         link scheduler, so an adaptive adversary has nothing to rule on; \
         use Engine.run with ~reception, or the dual-graph model");
  let m = Dual.unreliable_count dual in
  let fill ~round ~transmitting buf =
    let k = ref 0 in
    for edge = 0 to m - 1 do
      if Adaptive.choose adversary ~round ~transmitting ~edge then begin
        Array.unsafe_set buf !k edge;
        incr k
      end
    done;
    !k
  in
  (* The adversary is consulted once per (round, edge) regardless of the
     outcome. *)
  Kernel.run ~name:"Engine.run_adaptive" ~tiles:1
    ~activation:{ Kernel.fill; resolved = (fun _ -> m) }
    ?observer ?stop ?sink ?metrics ?faults ?revive ~reception ~dual ~nodes ~env
    ~rounds ()

let transmitter_counts ?incidence ~dual ~scheduler ~round ~transmitting () =
  let n = Dual.n dual in
  if Array.length transmitting <> n then
    invalid_arg "Engine.transmitter_counts: size mismatch";
  let inc =
    match incidence with
    | Some inc ->
        if Array.length inc.inc_off <> n + 1 then
          invalid_arg "Engine.transmitter_counts: incidence/graph mismatch";
        inc
    | None -> unreliable_incidence dual
  in
  let g_off = Graph.csr_offsets (Dual.g dual) in
  let g_adj = Graph.csr_neighbors (Dual.g dual) in
  let m = Dual.unreliable_count dual in
  let active = Bytes.create m in
  if m > 0 then Scheduler.fill_active scheduler ~round active;
  let counts = Array.make n 0 in
  for v = 0 to n - 1 do
    if transmitting.(v) then begin
      for j = g_off.(v) to g_off.(v + 1) - 1 do
        let u = Array.unsafe_get g_adj j in
        counts.(u) <- counts.(u) + 1
      done;
      for j = inc.inc_off.(v) to inc.inc_off.(v + 1) - 1 do
        if Bytes.unsafe_get active (Array.unsafe_get inc.inc_edge j) = '\001'
        then begin
          let u = Array.unsafe_get inc.inc_nbr j in
          counts.(u) <- counts.(u) + 1
        end
      done
    end
  done;
  counts
