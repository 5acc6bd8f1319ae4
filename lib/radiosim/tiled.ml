let default_tiles () = 1 + Parallel.Budget.suggested_extra ()

let run ?observer ?stop ?sink ?metrics ?faults ?revive ?tiles
    ?(reception = Reception.dual_graph) ~dual ~scheduler ~nodes ~env ~rounds ()
    =
  let tiles =
    match tiles with
    | Some k when k < 1 -> invalid_arg "Tiled.run: tiles must be >= 1"
    | Some k -> k
    | None -> default_tiles ()
  in
  Kernel.run ~name:"Tiled.run" ~tiles
    ~activation:
      (Kernel.oblivious scheduler ~m:(Dualgraph.Dual.unreliable_count dual))
    ?observer ?stop ?sink ?metrics ?faults ?revive ~reception ~dual ~nodes ~env
    ~rounds ()
