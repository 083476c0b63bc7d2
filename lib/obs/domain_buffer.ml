(* A per-domain append buffer, shared by the tracer's event sinks and
   the logger's record buffers.

   Each domain appends to its own cell, discovered through a DLS slot,
   so pushes from different domains never contend; the registry mutex
   is taken only when a domain pushes its first item of a generation.
   [reset] starts a new generation: cells of the previous one are
   dropped from the registry and lazily replaced by their domains, so
   stale items never leak into a fresh stream.  A cell's list is an
   atomic, so [drain] may run while other domains push. *)

type 'a cell = { gen : int; tid : int; items : 'a list Atomic.t }

type 'a t = {
  lock : Mutex.t;
  mutable cells : 'a cell list;
  generation : int Atomic.t;
  slot : 'a cell option ref Domain.DLS.key;
}

let create () =
  {
    lock = Mutex.create ();
    cells = [];
    generation = Atomic.make 0;
    slot = Domain.DLS.new_key (fun () -> ref None);
  }

let reset t =
  Mutex.lock t.lock;
  t.cells <- [];
  Atomic.incr t.generation;
  Mutex.unlock t.lock

let cell t =
  let r = Domain.DLS.get t.slot in
  match !r with
  | Some c when c.gen = Atomic.get t.generation -> c
  | _ ->
    Mutex.lock t.lock;
    let c =
      {
        gen = Atomic.get t.generation;
        tid = (Domain.self () :> int);
        items = Atomic.make [];
      }
    in
    t.cells <- c :: t.cells;
    Mutex.unlock t.lock;
    r := Some c;
    c

let push t x =
  let c = cell t in
  let rec go () =
    let old = Atomic.get c.items in
    if not (Atomic.compare_and_set c.items old (x :: old)) then go ()
  in
  go ()

let registered t =
  Mutex.lock t.lock;
  let cells = t.cells in
  Mutex.unlock t.lock;
  cells

let contents t =
  List.map (fun c -> (c.tid, List.rev (Atomic.get c.items))) (registered t)

let drain t =
  List.map
    (fun c -> (c.tid, List.rev (Atomic.exchange c.items [])))
    (registered t)
