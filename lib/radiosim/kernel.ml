module Dual = Dualgraph.Dual
module Graph = Dualgraph.Graph
module Tile = Dualgraph.Tile
module A1 = Bigarray.Array1

type activation = {
  fill : round:int -> transmitting:bool array -> int array -> int;
  resolved : int -> int;
}

let oblivious scheduler ~m =
  {
    fill =
      (fun ~round ~transmitting:_ buf ->
        Scheduler.fill_active_sparse scheduler ~round ~m buf);
    resolved =
      (fun count -> if Scheduler.resolves_sparsely scheduler then count else m);
  }

(* Growable flat int buffer — transmitter lists, touched-listener lists
   and halo outboxes all reuse it round to round, so steady-state rounds
   allocate nothing for bookkeeping.  Sized to a tile's node count, the
   transmitter and touched lists never grow. *)
type ibuf = { mutable data : int array; mutable len : int }

let ibuf_make cap = { data = Array.make (max cap 1) 0; len = 0 }

let ibuf_push b x =
  let cap = Array.length b.data in
  if b.len = cap then begin
    let d = Array.make (2 * cap) 0 in
    Array.blit b.data 0 d 0 b.len;
    b.data <- d
  end;
  Array.unsafe_set b.data b.len x;
  b.len <- b.len + 1

let run ~name ~tiles ~activation ?observer ?stop ?sink ?metrics ?faults
    ?revive ~reception ~dual ~nodes ~env ~rounds () =
  let n = Dual.n dual in
  if Array.length nodes <> n then
    invalid_arg (name ^ ": node array size differs from vertex count");
  if rounds < 0 then invalid_arg (name ^ ": negative round count");
  (match faults with
  | Some plan when Faults.Plan.n plan <> n ->
      invalid_arg (name ^ ": fault plan node count differs from vertex count")
  | _ -> ());
  (* One tile is the whole field in ascending id order: no partition is
     built, no domain spawned, and every phase runs inline. *)
  let k, owner, members =
    if min tiles n <= 1 then (1, [||], [| Array.init n Fun.id |])
    else
      let tile = Tile.of_dual ~tiles dual in
      let k = Tile.tiles tile in
      (k, Array.init n (Tile.owner tile), Array.init k (Tile.members tile))
  in
  (* The reception model is fixed for the run.  Under SINR a jam window
     is additive noise at the victim's receiver instead of suppressing
     its transmission, and the link scheduler is never consulted. *)
  let sinr_field =
    match reception with
    | Reception.Dual_graph -> None
    | Reception.Sinr p -> Some (Sinr.create ~params:p dual)
  in
  let jam_suppresses = Option.is_none sinr_field in
  (* Restarts swap processes in place; work on a copy so the caller's
     node array survives the run. *)
  let nodes = match faults with None -> nodes | Some _ -> Array.copy nodes in
  let dead = Bytes.make n '\000' in
  let fault_cursor = Option.map Faults.Plan.cursor faults in
  let is_dead =
    match faults with
    | None -> fun _ -> false
    | Some _ -> fun v -> Bytes.unsafe_get dead v = '\001'
  in
  let round = ref 0 in
  let jammed =
    match faults with
    | Some plan when Faults.Plan.has_jams plan ->
        fun v -> Faults.Plan.jammed plan ~node:v ~round:!round
    | _ -> fun _ -> false
  in
  let g_off = Graph.csr_offsets (Dual.g dual) in
  let g_adj = Graph.csr_neighbors (Dual.g dual) in
  let m = Dual.unreliable_count dual in
  (* Unreliable edge endpoints in flat form, plus the round's sparse
     activation buffer and the intrusive per-round adjacency (slots 2k
     and 2k+1 belong to the k-th active edge). *)
  let eu = Array.make (max m 1) 0 and ev = Array.make (max m 1) 0 in
  Array.iteri
    (fun i (u, v) ->
      eu.(i) <- u;
      ev.(i) <- v)
    (Dual.unreliable_edges dual);
  let sparse = Array.make (max m 1) 0 in
  let adj_head = Array.make n (-1) in
  let adj_next = Array.make (max (2 * m) 1) 0 in
  let adj_nbr = Array.make (max (2 * m) 1) 0 in
  let counter name =
    Option.map (fun reg -> Obs.Metrics.counter reg name) metrics
  in
  let ctr_active, ctr_resolved =
    (counter "engine.active_edges", counter "scheduler.edges_resolved")
  in
  let ctr_crash, ctr_restart, ctr_jam =
    match faults with
    | Some _ ->
        ( counter "faults.crashes",
          counter "faults.restarts",
          counter "faults.jams" )
    | None -> (None, None, None)
  in
  let count_sinr_jams =
    ctr_jam <> None && (not jam_suppresses)
    && match faults with Some plan -> Faults.Plan.has_jams plan | None -> false
  in
  (* Per-listener reception accumulator, unboxed: -1 nothing heard,
     >= 0 the single transmitter heard so far, -2 collided.  A slot is
     written only by the listener's owning tile (remote transmissions
     arrive through the outboxes), so the phases are race-free by
     ownership.  [sent] holds each on-air transmitter's message, boxed
     once and shared by every listener that decodes it. *)
  let heard = A1.create Bigarray.int Bigarray.c_layout n in
  A1.fill heard (-1);
  let transmitting = Array.make n false in
  let sent = Array.make n None in
  let tx = Array.map (fun mem -> ibuf_make (Array.length mem)) members in
  let tx_global = Array.make (if k = 1 then 0 else n) 0 in
  let touched = Array.map (fun mem -> ibuf_make (Array.length mem)) members in
  let outbox = Array.init k (fun _ -> Array.init k (fun _ -> ibuf_make 64)) in
  let jam_hits = Array.make k 0 in
  (* A round record can escape only through [observer] or [stop]; when
     neither is supplied the per-round arrays are reused across rounds. *)
  let record_escapes = observer <> None || stop <> None in
  let inputs_r = ref (Array.make n []) in
  let actions_r = ref (Array.make n Process.Listen) in
  let delivered_r = ref (Array.make n None) in
  let outputs_r = ref (Array.make n []) in
  (* Worker domains poll inputs only from environments that declare them
     pure; otherwise the coordinator polls in ascending node order. *)
  let poll_in_phase = k > 1 && env.Env.pure_inputs in
  let push_local tb w src =
    let cur = A1.unsafe_get heard w in
    if cur = -1 then begin
      A1.unsafe_set heard w src;
      ibuf_push tb w
    end
    else if cur <> -2 then A1.unsafe_set heard w (-2)
  in
  let deliver i tb ob w src =
    if k = 1 || Array.unsafe_get owner w = i then push_local tb w src
    else begin
      let b = Array.unsafe_get ob (Array.unsafe_get owner w) in
      ibuf_push b w;
      ibuf_push b src
    end
  in
  (* Inputs (when pure) and transmit/listen decisions for a tile's
     nodes.  A dead node is invisible to its environment and not
     stepped; a jammed transmitter under the dual-graph model is charged
     for its decision but taken off the air. *)
  let phase_decide i =
    let t = !round in
    let inputs = !inputs_r and actions = !actions_r in
    let mem = members.(i) in
    let txb = tx.(i) in
    txb.len <- 0;
    let jams = ref 0 in
    for idx = 0 to Array.length mem - 1 do
      let v = Array.unsafe_get mem idx in
      let on_air =
        if is_dead v then begin
          inputs.(v) <- [];
          actions.(v) <- Process.Listen;
          false
        end
        else begin
          if poll_in_phase then inputs.(v) <- env.Env.inputs ~round:t ~node:v;
          let a = nodes.(v).Process.decide ~round:t inputs.(v) in
          actions.(v) <- a;
          match a with
          | Process.Transmit _ when jam_suppresses && jammed v ->
              incr jams;
              false
          | Process.Transmit msg ->
              Array.unsafe_set sent v (Some msg);
              ibuf_push txb v;
              true
          | Process.Listen -> false
        end
      in
      Array.unsafe_set transmitting v on_air
    done;
    jam_hits.(i) <- !jams
  in
  (* Dual-graph reception, transmitter-centric: each transmitter pushes
     along its reliable CSR slice and the round's active unreliable
     adjacency.  Foreign listeners' receptions go to the per-(source,
     destination) tile outbox — the halo exchange — which the
     coordinator folds in with [drain] after the phase; the fold is
     commutative, so order cannot matter. *)
  let phase_push i =
    let txb = tx.(i) and tb = touched.(i) and ob = outbox.(i) in
    for idx = 0 to txb.len - 1 do
      let v = Array.unsafe_get txb.data idx in
      for j = g_off.(v) to g_off.(v + 1) - 1 do
        deliver i tb ob (Array.unsafe_get g_adj j) v
      done;
      let j = ref (Array.unsafe_get adj_head v) in
      while !j >= 0 do
        deliver i tb ob (Array.unsafe_get adj_nbr !j) v;
        j := Array.unsafe_get adj_next !j
      done
    done
  in
  let drain i =
    let tb = touched.(i) in
    for src_tile = 0 to k - 1 do
      let b = outbox.(src_tile).(i) in
      let j = ref 0 in
      while !j < b.len do
        push_local tb
          (Array.unsafe_get b.data !j)
          (Array.unsafe_get b.data (!j + 1));
        j := !j + 2
      done;
      b.len <- 0
    done
  in
  (* SINR reception: tile i owns the slot range [i·n/k, (i+1)·n/k) of
     the field's column-major listener CSR (the spatial ranking Tile
     stripes) and scans only the round's active columns that meet it —
     at one tile, exactly {!Sinr.active_columns}.  Tiles sharing a split
     column scan disjoint slot sub-ranges, so the field's scratch is
     touched race-free.  [faults.jams] charges every jammed alive
     listener of a contended round, in or out of band. *)
  let phase_scan i =
    match sinr_field with
    | None -> ()
    | Some f ->
        let slo = i * n / k and shi = (i + 1) * n / k in
        let soff = Sinr.slot_off f and snode = Sinr.slot_node f in
        let tb = touched.(i) in
        let jams = ref 0 in
        if count_sinr_jams then
          for s = slo to shi - 1 do
            let u = Array.unsafe_get snode s in
            if
              (not (Array.unsafe_get transmitting u))
              && (not (is_dead u))
              && jammed u
            then incr jams
          done;
        jam_hits.(i) <- !jams;
        (* {!Sinr.active_columns}, read without boxing the pair. *)
        let act = f.Sinr.act and nact = f.Sinr.nact in
        for a = 0 to nact - 1 do
          let c = Array.unsafe_get act a in
          let lo = max slo (Array.unsafe_get soff c)
          and hi = min shi (Array.unsafe_get soff (c + 1)) in
          if lo < hi then begin
            Sinr.scan_slots f ~column:c ~lo ~hi;
            for s = lo to hi - 1 do
              let u = Array.unsafe_get snode s in
              if (not (Array.unsafe_get transmitting u)) && not (is_dead u)
              then
                match Sinr.verdict f ~jammed:(jammed u) ~slot:s with
                | -1 -> ()
                | r ->
                    A1.unsafe_set heard u r;
                    ibuf_push tb u
            done
          end
        done
  in
  (* Delivery results and outputs for a tile's nodes. *)
  let phase_absorb i =
    let t = !round in
    let actions = !actions_r
    and delivered = !delivered_r
    and outputs = !outputs_r in
    let mem = members.(i) in
    for idx = 0 to Array.length mem - 1 do
      let v = Array.unsafe_get mem idx in
      if is_dead v then begin
        delivered.(v) <- None;
        outputs.(v) <- []
      end
      else begin
        let d =
          match actions.(v) with
          | Process.Transmit _ -> None
          | Process.Listen ->
              let s = A1.unsafe_get heard v in
              if s < 0 then None else Array.unsafe_get sent s
        in
        delivered.(v) <- d;
        outputs.(v) <- nodes.(v).Process.absorb ~round:t d
      end
    done
  in
  let pool = Parallel.Pool.create ~workers:k in
  let phase f = Parallel.Pool.run pool f in
  Fun.protect
    ~finally:(fun () -> Parallel.Pool.shutdown pool)
    (fun () ->
      let executed = ref 0 in
      let continue = ref true in
      while !continue && !round < rounds do
        let t = !round in
        (* Event emission is gated on the sink's presence per site,
           never per element. *)
        (match sink with
        | None -> ()
        | Some s -> Obs.Sink.emit s (Obs.Event.Round_start { round = t }));
        (* Fault transitions take effect at the top of the round: a node
           crashing at round t is already silent in t, a node restarting
           at t already participates in t (with the fresh process
           [revive] supplies — without it the frozen pre-crash state
           resumes). *)
        (match fault_cursor with
        | None -> ()
        | Some cur ->
            Faults.Plan.apply cur ~round:t (fun node ev ->
                match ev with
                | Faults.Plan.Crash ->
                    Bytes.unsafe_set dead node '\001';
                    (match sink with
                    | None -> ()
                    | Some s ->
                        Obs.Sink.emit s (Obs.Event.Crash { round = t; node }));
                    (match ctr_crash with
                    | Some c -> Obs.Metrics.incr c
                    | None -> ())
                | Faults.Plan.Restart ->
                    Bytes.unsafe_set dead node '\000';
                    (match revive with
                    | Some fresh -> nodes.(node) <- fresh ~node ~round:t
                    | None -> ());
                    (match sink with
                    | None -> ()
                    | Some s ->
                        Obs.Sink.emit s
                          (Obs.Event.Restart { round = t; node }));
                    (match ctr_restart with
                    | Some c -> Obs.Metrics.incr c
                    | None -> ())));
        if record_escapes then begin
          inputs_r := Array.make n [];
          actions_r := Array.make n Process.Listen;
          delivered_r := Array.make n None;
          outputs_r := Array.make n []
        end;
        if not poll_in_phase then begin
          let inputs = !inputs_r in
          for v = 0 to n - 1 do
            inputs.(v) <-
              (if is_dead v then [] else env.Env.inputs ~round:t ~node:v)
          done
        end;
        phase phase_decide;
        let tcount = ref 0 in
        for i = 0 to k - 1 do
          tcount := !tcount + tx.(i).len
        done;
        let acount = ref 0 in
        if !tcount > 0 then begin
          match sinr_field with
          | Some f ->
              (* The field wants the transmitters in ascending id order;
                 tile stripes do not partition the id space, so several
                 tiles' lists are merged by rescanning the on-air bits. *)
              let txs =
                if k = 1 then tx.(0).data
                else begin
                  let j = ref 0 in
                  for v = 0 to n - 1 do
                    if Array.unsafe_get transmitting v then begin
                      Array.unsafe_set tx_global !j v;
                      incr j
                    end
                  done;
                  tx_global
                end
              in
              Sinr.load_round f ~transmitters:txs ~count:!tcount;
              phase phase_scan
          | None ->
              if m > 0 then begin
                acount := activation.fill ~round:t ~transmitting sparse;
                (match (ctr_active, ctr_resolved) with
                | Some a, Some r ->
                    Obs.Metrics.incr ~by:!acount a;
                    Obs.Metrics.incr ~by:(activation.resolved !acount) r
                | _ -> ());
                for kk = 0 to !acount - 1 do
                  let e = Array.unsafe_get sparse kk in
                  let a = Array.unsafe_get eu e and b = Array.unsafe_get ev e in
                  Array.unsafe_set adj_nbr (2 * kk) b;
                  Array.unsafe_set adj_next (2 * kk)
                    (Array.unsafe_get adj_head a);
                  Array.unsafe_set adj_head a (2 * kk);
                  Array.unsafe_set adj_nbr ((2 * kk) + 1) a;
                  Array.unsafe_set adj_next ((2 * kk) + 1)
                    (Array.unsafe_get adj_head b);
                  Array.unsafe_set adj_head b ((2 * kk) + 1)
                done
              end;
              phase phase_push;
              (* Halo traffic is a stripe-boundary fraction of the
                 pushes: cheaper folded serially than behind another
                 barrier. *)
              for i = 0 to k - 1 do
                drain i
              done
        end;
        (* Structural events, read off the settled accumulator before
           any process absorbs: one Transmit per on-air transmitter, one
           Deliver/Collision per affected listener, ascending ids. *)
        let deliveries = ref 0 and collisions = ref 0 in
        (match sink with
        | None -> ()
        | Some s ->
            let actions = !actions_r in
            for v = 0 to n - 1 do
              if Array.unsafe_get transmitting v then
                Obs.Sink.emit s (Obs.Event.Transmit { round = t; node = v })
            done;
            if !tcount > 0 then
              for u = 0 to n - 1 do
                match actions.(u) with
                | Process.Transmit _ -> ()
                | Process.Listen when is_dead u -> ()
                | Process.Listen ->
                    let sv = A1.unsafe_get heard u in
                    if sv = -2 then begin
                      incr collisions;
                      Obs.Sink.emit s
                        (Obs.Event.Collision { round = t; node = u })
                    end
                    else if sv >= 0 then begin
                      incr deliveries;
                      Obs.Sink.emit s
                        (Obs.Event.Deliver { round = t; node = u })
                    end
              done);
        phase phase_absorb;
        (match ctr_jam with
        | Some c ->
            let total = Array.fold_left ( + ) 0 jam_hits in
            if total > 0 then Obs.Metrics.incr ~by:total c
        | None -> ());
        (* Tear the round down, touching only what it set. *)
        if !tcount > 0 then begin
          for kk = 0 to !acount - 1 do
            let e = Array.unsafe_get sparse kk in
            Array.unsafe_set adj_head (Array.unsafe_get eu e) (-1);
            Array.unsafe_set adj_head (Array.unsafe_get ev e) (-1)
          done;
          for i = 0 to k - 1 do
            let tb = touched.(i) and txb = tx.(i) in
            for j = 0 to tb.len - 1 do
              A1.unsafe_set heard (Array.unsafe_get tb.data j) (-1)
            done;
            tb.len <- 0;
            for j = 0 to txb.len - 1 do
              Array.unsafe_set sent (Array.unsafe_get txb.data j) None
            done
          done
        end;
        (* Outputs, consumed by the environment. *)
        let outputs = !outputs_r in
        for v = 0 to n - 1 do
          match outputs.(v) with
          | [] -> ()
          | outs -> env.Env.notify ~round:t ~node:v outs
        done;
        if record_escapes then begin
          let record =
            {
              Trace.round = t;
              inputs = !inputs_r;
              actions = !actions_r;
              delivered = !delivered_r;
              outputs;
            }
          in
          (match observer with Some f -> f record | None -> ());
          match stop with Some p when p record -> continue := false | _ -> ()
        end;
        (* Round_end comes after the observer so that protocol-level
           events an observer emits (the Localcast.Lb_spec monitor) land
           inside the round's bracket. *)
        (match sink with
        | None -> ()
        | Some s ->
            Obs.Sink.emit s
              (Obs.Event.Round_end
                 {
                   round = t;
                   transmitters = !tcount;
                   deliveries = !deliveries;
                   collisions = !collisions;
                 }));
        incr executed;
        incr round
      done;
      !executed)
