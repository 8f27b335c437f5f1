(* A reusable pool of OCaml 5 domains executing chunked fork-join jobs.

   Domains are spawned once at [create] and parked on a condition
   variable between jobs; [run] publishes a job under the mutex, bumps a
   generation counter, and participates in the work itself (the caller
   is worker 0).  Chunks are claimed with a single atomic
   fetch-and-add, so the only mutex traffic per job is the wake-up
   broadcast and the completion barrier — the claim path stays off the
   lock even with deep oversubscription.

   Exception discipline: a job body that raises does not wedge the
   barrier.  The first exception (from any worker, including the
   caller) is recorded, remaining chunks are abandoned, every worker
   that joined the job still reaches the barrier, and [run] re-raises
   it on the caller's domain once the pool is quiescent. *)

module Obs = Blitz_obs.Obs

let m_jobs =
  Obs.Metrics.counter ~help:"Fork-join jobs executed by the domain pool" "blitz_pool_jobs_total"

let m_chunks =
  Obs.Metrics.counter ~help:"Work chunks claimed across all pool workers"
    "blitz_pool_chunks_claimed_total"

let m_barrier_wait =
  Obs.Metrics.histogram
    ~help:"Seconds the caller waited at the completion barrier after finishing its own chunks"
    "blitz_pool_barrier_wait_seconds"

type t = {
  num_domains : int;
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable generation : int;
  mutable job : worker:int -> int -> unit;
  mutable chunk_count : int;
  next_chunk : int Atomic.t;
  mutable joined : int;  (* spawned workers that took the current job *)
  mutable open_job : bool;  (* whether a waking worker may still take it *)
  mutable idle : int;  (* joined workers done with the current job *)
  mutable poisoned : exn option;  (* first exception raised by any worker *)
  mutable shutdown : bool;
  mutable domains : unit Domain.t list;
}

let num_domains t = t.num_domains

(* Claim and run chunks until none remain or a worker has poisoned the
   job.  The poison check costs one mutex-free read per chunk: workers
   racing past it finish at most one extra chunk each. *)
let drain t job count =
  let rec go () =
    if t.poisoned = None then begin
      let c = Atomic.fetch_and_add t.next_chunk 1 in
      if c < count then begin
        Obs.Metrics.incr m_chunks;
        (match job c with
        | () -> ()
        | exception exn ->
          Mutex.lock t.mutex;
          if t.poisoned = None then t.poisoned <- Some exn;
          Mutex.unlock t.mutex);
        go ()
      end
    end
  in
  go ()

let worker_body t index =
  let my_generation = ref 0 in
  let rec park () =
    Mutex.lock t.mutex;
    while t.generation = !my_generation && not t.shutdown do
      Condition.wait t.work_ready t.mutex
    done;
    if t.shutdown then Mutex.unlock t.mutex
    else begin
      my_generation := t.generation;
      if t.open_job then begin
        t.joined <- t.joined + 1;
        let job = t.job and count = t.chunk_count in
        Mutex.unlock t.mutex;
        drain t (job ~worker:index) count;
        Mutex.lock t.mutex;
        t.idle <- t.idle + 1;
        if t.idle = t.joined then Condition.signal t.work_done
      end;
      Mutex.unlock t.mutex;
      park ()
    end
  in
  park ()

let shutdown t =
  if not t.shutdown then begin
    Mutex.lock t.mutex;
    t.shutdown <- true;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.domains;
    t.domains <- []
  end

let create ~num_domains =
  if num_domains < 1 || num_domains > 128 then
    invalid_arg (Printf.sprintf "Pool.create: num_domains = %d outside [1, 128]" num_domains);
  let t =
    {
      num_domains;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      generation = 0;
      job = (fun ~worker:_ _ -> ());
      chunk_count = 0;
      next_chunk = Atomic.make 0;
      joined = 0;
      open_job = false;
      idle = 0;
      poisoned = None;
      shutdown = false;
      domains = [];
    }
  in
  (* One worker at a time, so that when the runtime refuses one (its
     domain cap, or a thread it cannot create) the workers already
     spawned are shut down before the failure propagates. *)
  (try
     for i = 1 to num_domains - 1 do
       t.domains <- Domain.spawn (fun () -> worker_body t i) :: t.domains
     done
   with exn ->
     let bt = Printexc.get_raw_backtrace () in
     shutdown t;
     Printexc.raise_with_backtrace exn bt);
  t

let run t ~chunks job =
  if chunks < 0 then invalid_arg "Pool.run: negative chunk count";
  if t.shutdown then invalid_arg "Pool.run: pool is shut down";
  Obs.Metrics.incr m_jobs;
  Mutex.lock t.mutex;
  t.job <- job;
  t.chunk_count <- chunks;
  t.poisoned <- None;
  t.joined <- 0;
  t.open_job <- true;
  t.idle <- 0;
  Atomic.set t.next_chunk 0;
  t.generation <- t.generation + 1;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex;
  drain t (job ~worker:0) chunks;
  (* Worker 0 has claimed the last chunk, so the job is closed: a worker
     that wakes from now on finds nothing to claim and sits it out, and
     the barrier waits only for the workers that joined.  A job smaller
     than a worker's wake-up therefore costs the caller no wait.  The
     caller's wait here is the job's load-imbalance signal: a long wait
     means a joined worker still held oversized chunks after worker 0
     ran dry. *)
  Obs.Metrics.time m_barrier_wait (fun () ->
      Mutex.lock t.mutex;
      t.open_job <- false;
      while t.idle < t.joined do
        Condition.wait t.work_done t.mutex
      done);
  let failure = t.poisoned in
  t.poisoned <- None;
  Mutex.unlock t.mutex;
  match failure with None -> () | Some exn -> raise exn
