(* A fixed pool of worker domains with one dispatch, [parallel_for].

   The GPU simulator maps thread blocks onto these workers; the pool is
   created once and reused across kernel launches, since spawning domains
   is far more expensive than a kernel launch.

   A call never waits on a domain that took no work: one factorization
   is hundreds of launches of a few blocks each, and the caller often
   does all of a launch's blocks before a parked worker is back on a
   core.  The first exception of a call (and its backtrace) is re-raised
   on the caller, so a raising kernel body surfaces as an error instead
   of silently producing garbage. *)

type task = unit -> unit

(* Set on worker domains and on a caller while it runs its own chunks:
   a nested [parallel_for] from such a context executes inline instead
   of re-entering the queue.  Any other domain — the fleet's workers
   included — is an external caller and queues helpers. *)
let inside_task : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* The bounded busy-wait, in [Domain.cpu_relax] rounds (~33 ns each on
   a 2-vCPU x86-64 VM, so 20k is ~0.65 ms): how long a worker that
   finished a task looks for the next before it parks, and how long a
   caller waits for claimed chunks before it blocks.  It spans the
   host-side gap between the back-to-back launches of one panel.  Swept
   on the perfbench exec_square workload on that VM (8 s runs in
   rotation, median latency_norm_ms of 3 runs each): 0 rounds (park at
   once) 16.09 ms, 2k 15.13, 5k 14.95, 20k 15.41, 50k 16.66.  2k-20k is
   one plateau within the noise; beyond it the spin costs more than it
   saves. *)
let spin_rounds = 20_000

type t = {
  queue : task Queue.t;
  queued : int Atomic.t; (* [Queue.length queue], read without the lock *)
  lock : Mutex.t;
  nonempty : Condition.t; (* idle workers park here *)
  finished : Condition.t; (* callers waiting for claimed chunks park here *)
  stop : bool Atomic.t;
  mutable domains : unit Domain.t array;
  size : int;
  (* Busy-waiting only pays when every domain can hold a core; a pool
     with more domains than cores never spins. *)
  spins : bool;
}

(* Spins until [ready ()], for at most [spin_rounds]. *)
let spin_until pool ready =
  if pool.spins then begin
    let rounds = ref spin_rounds in
    while !rounds > 0 && not (ready ()) do
      Domain.cpu_relax ();
      decr rounds
    done
  end

(* Workers park at spawn and spin only after a task, so an idle pool
   burns no core. *)
let worker_loop pool =
  Domain.DLS.set inside_task true;
  let rec next () =
    Mutex.lock pool.lock;
    while Queue.is_empty pool.queue && not (Atomic.get pool.stop) do
      Condition.wait pool.nonempty pool.lock
    done;
    if Queue.is_empty pool.queue then Mutex.unlock pool.lock
    else begin
      let task = Queue.pop pool.queue in
      Atomic.decr pool.queued;
      Mutex.unlock pool.lock;
      task ();
      spin_until pool (fun () ->
          Atomic.get pool.queued > 0 || Atomic.get pool.stop);
      next ()
    end
  in
  next ()

let create n =
  let n = max 1 n in
  let pool =
    {
      queue = Queue.create ();
      queued = Atomic.make 0;
      lock = Mutex.create ();
      nonempty = Condition.create ();
      finished = Condition.create ();
      stop = Atomic.make false;
      domains = [||];
      size = n;
      spins = n <= Domain.recommended_domain_count ();
    }
  in
  pool.domains <-
    Array.init (n - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let size pool = pool.size

let shutdown pool =
  Mutex.lock pool.lock;
  Atomic.set pool.stop true;
  Condition.broadcast pool.nonempty;
  Mutex.unlock pool.lock;
  Array.iter Domain.join pool.domains;
  pool.domains <- [||]

(* The caller queues up to [size - 1] helper tasks and claims chunks
   itself, all from one atomic next-index counter, so no chunk takes a
   lock.  It then waits only until the call's count of finished chunks
   is full; each domain adds its share once, when it stops claiming.  A
   domain whose chunk raised keeps claiming, so every chunk is attempted
   and the wait ends even if no helper ever woke; a helper that starts
   after the range is used up returns at once. *)
let parallel_for ?chunk pool lo hi f =
  if hi > lo then begin
    let n = hi - lo in
    let chunk =
      match chunk with
      | Some c -> max 1 c
      | None -> max 1 (n / (4 * pool.size))
    in
    if n <= chunk || pool.size = 1 || Domain.DLS.get inside_task then
      for i = lo to hi - 1 do
        f i
      done
    else begin
      let chunks = (n + chunk - 1) / chunk in
      let next = Atomic.make lo in
      let finished = Atomic.make 0 in
      let failure = Atomic.make None in
      (* Adds this domain's chunks to [finished] once it stops claiming;
         true when they completed the call. *)
      let claim () =
        let mine = ref 0 and continue_ = ref true in
        while !continue_ do
          let a = Atomic.fetch_and_add next chunk in
          if a >= hi then continue_ := false
          else begin
            let b = min hi (a + chunk) in
            let work () =
              for j = a to b - 1 do
                f j
              done
            in
            (try
               (* One span per claimed chunk, on the claiming domain's
                  track — this is what shows the self-scheduling pattern
                  (and any imbalance) in the trace viewer. *)
               if Obs.Tracer.enabled () then
                 Obs.Tracer.span ~cat:"pool"
                   ~args:
                     [ ("lo", Obs.Tracer.Int a); ("hi", Obs.Tracer.Int b) ]
                   "chunk" work
               else work ()
             with e ->
               let bt = Printexc.get_raw_backtrace () in
               ignore (Atomic.compare_and_set failure None (Some (e, bt))));
            incr mine
          end
        done;
        !mine > 0 && Atomic.fetch_and_add finished !mine + !mine = chunks
      in
      let helper () =
        if Atomic.get next < hi then begin
          let last =
            if Obs.Tracer.enabled () then
              Obs.Tracer.span ~cat:"pool" "task" claim
            else claim ()
          in
          if last then begin
            Mutex.lock pool.lock;
            Condition.broadcast pool.finished;
            Mutex.unlock pool.lock
          end
        end
      in
      let helpers = min pool.size chunks - 1 in
      Mutex.lock pool.lock;
      for _ = 1 to helpers do
        Queue.push helper pool.queue
      done;
      ignore (Atomic.fetch_and_add pool.queued helpers);
      Condition.broadcast pool.nonempty;
      Mutex.unlock pool.lock;
      Domain.DLS.set inside_task true;
      ignore (claim ());
      Domain.DLS.set inside_task false;
      let all_done () = Atomic.get finished = chunks in
      if not (all_done ()) then begin
        spin_until pool all_done;
        Mutex.lock pool.lock;
        while not (all_done ()) do
          Condition.wait pool.finished pool.lock
        done;
        Mutex.unlock pool.lock
      end;
      match Atomic.get failure with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end
  end

(* A lazily created default pool, one domain per core the process may
   use.  Not an OCaml [lazy]: those are not domain-safe (a concurrent
   force raises [Undefined] in the loser), and the fleet's worker
   domains all reach for the default pool on their first job.
   Double-checked creation under a mutex instead — exactly one pool is
   ever spawned. *)
let default : t option Atomic.t = Atomic.make None
let default_lock = Mutex.create ()

let get_default () =
  match Atomic.get default with
  | Some pool -> pool
  | None ->
    Mutex.lock default_lock;
    let pool =
      match Atomic.get default with
      | Some pool -> pool
      | None ->
        let pool = create (Domain.recommended_domain_count ()) in
        Atomic.set default (Some pool);
        pool
    in
    Mutex.unlock default_lock;
    pool
