(* One mutex + condition carries both edges of the barrier: workers
   wait for [epoch] to advance, the coordinator waits for [pending] to
   drain.  Broadcast wakes everyone; each side re-checks its own
   predicate.  All job-visible memory written before the epoch bump is
   published to the workers by the mutex, and everything the workers
   wrote is published back to the coordinator by the final unlock —
   the callers' plain (non-atomic) arrays need no further fencing. *)

type t = {
  workers : int;
  m : Mutex.t;
  cv : Condition.t;
  mutable epoch : int;
  mutable job : int -> unit;
  mutable pending : int;
  mutable stopped : bool;
  mutable failure : (exn * Printexc.raw_backtrace) option;
  mutable domains : unit Domain.t list;
}

let size t = t.workers

(* The parked job: [run] swaps the real one in without allocating. *)
let idle (_ : int) = ()

let record_failure t e bt =
  Mutex.lock t.m;
  if t.failure = None then t.failure <- Some (e, bt);
  Mutex.unlock t.m

let worker_loop t i =
  let seen = ref 0 in
  let live = ref true in
  while !live do
    Mutex.lock t.m;
    while (not t.stopped) && t.epoch = !seen do
      Condition.wait t.cv t.m
    done;
    if t.stopped then begin
      Mutex.unlock t.m;
      live := false
    end
    else begin
      let job = t.job in
      seen := t.epoch;
      Mutex.unlock t.m;
      (try job i
       with e -> record_failure t e (Printexc.get_raw_backtrace ()));
      Mutex.lock t.m;
      t.pending <- t.pending - 1;
      if t.pending = 0 then Condition.broadcast t.cv;
      Mutex.unlock t.m
    end
  done

let create ~workers =
  if workers < 1 then invalid_arg "Parallel.Pool.create: workers must be >= 1";
  let t =
    {
      workers;
      m = Mutex.create ();
      cv = Condition.create ();
      epoch = 0;
      job = idle;
      pending = 0;
      stopped = false;
      failure = None;
      domains = [];
    }
  in
  t.domains <-
    List.init (workers - 1) (fun k ->
        Domain.spawn (fun () -> worker_loop t (k + 1)));
  Budget.note_spawned (workers - 1);
  t

let run t job =
  if t.stopped then invalid_arg "Parallel.Pool.run: pool is shut down";
  if t.workers = 1 then job 0
  else begin
    Mutex.lock t.m;
    t.job <- job;
    t.epoch <- t.epoch + 1;
    t.pending <- t.workers - 1;
    Condition.broadcast t.cv;
    Mutex.unlock t.m;
    (try job 0 with e -> record_failure t e (Printexc.get_raw_backtrace ()));
    Mutex.lock t.m;
    while t.pending > 0 do
      Condition.wait t.cv t.m
    done;
    t.job <- idle;
    let failed = t.failure in
    t.failure <- None;
    Mutex.unlock t.m;
    match failed with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

let shutdown t =
  if not t.stopped then begin
    Mutex.lock t.m;
    t.stopped <- true;
    Condition.broadcast t.cv;
    Mutex.unlock t.m;
    List.iter Domain.join t.domains;
    Budget.note_joined (List.length t.domains);
    t.domains <- []
  end
