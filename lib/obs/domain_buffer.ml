(* Per-domain state: the one mechanism behind the tracer's event sinks,
   the logger's record buffers and the metrics registry's shards.

   Each domain finds its own cell through a DLS slot, so updates from
   different domains never contend; the registry mutex is taken only
   when a domain touches its first cell of a generation.  [reset] starts
   a new generation: cells of the previous one are dropped from the
   registry and lazily replaced by their domains, so stale state never
   leaks into a fresh stream.  A cell outlives its domain: readers keep
   seeing what an exited domain left in it. *)

module Cells = struct
  type 'a cell = { gen : int; tid : int; value : 'a }

  type 'a t = {
    lock : Mutex.t;
    mutable cells : 'a cell list;
    generation : int Atomic.t;
    slot : 'a cell option ref Domain.DLS.key;
    make : unit -> 'a;
  }

  let create make =
    {
      lock = Mutex.create ();
      cells = [];
      generation = Atomic.make 0;
      slot = Domain.DLS.new_key (fun () -> ref None);
      make;
    }

  let reset t =
    Mutex.lock t.lock;
    t.cells <- [];
    Atomic.incr t.generation;
    Mutex.unlock t.lock

  (* Two systhreads of one domain racing through a first use may both
     register a cell; the slot keeps the last, and readers still see
     the other one's contents, since they read every registered cell. *)
  let get t =
    let r = Domain.DLS.get t.slot in
    match !r with
    | Some c when c.gen = Atomic.get t.generation -> c.value
    | _ ->
      let value = t.make () in
      Mutex.lock t.lock;
      let c =
        { gen = Atomic.get t.generation; tid = (Domain.self () :> int); value }
      in
      t.cells <- c :: t.cells;
      Mutex.unlock t.lock;
      r := Some c;
      value

  let all t =
    Mutex.lock t.lock;
    let cells = t.cells in
    Mutex.unlock t.lock;
    List.map (fun c -> (c.tid, c.value)) cells
end

(* A buffer cell's list is an atomic, so [drain] may run while other
   domains push. *)
type 'a t = 'a list Atomic.t Cells.t

let create () : 'a t = Cells.create (fun () -> Atomic.make [])
let reset = Cells.reset

let push t x =
  let items = Cells.get t in
  let rec go () =
    let old = Atomic.get items in
    if not (Atomic.compare_and_set items old (x :: old)) then go ()
  in
  go ()

let contents t =
  List.map (fun (tid, items) -> (tid, List.rev (Atomic.get items))) (Cells.all t)

let drain t =
  List.map
    (fun (tid, items) -> (tid, List.rev (Atomic.exchange items [])))
    (Cells.all t)
