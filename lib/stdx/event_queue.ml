(* Binary min-heap ordered by (time, sequence number).  The sequence
   number — assigned at push — breaks ties in FIFO order, so equal-time
   events pop in the order they were scheduled and the whole queue is
   deterministic.

   Layout is struct-of-arrays: times live in a flat float array (unboxed
   storage), seqs in an int array, events in an ['a array] of the same
   length.  Event slots past [size] hold the dummy supplied at creation,
   which replaces the [Some]-per-push boxing of an ['a option array];
   [pop_root] resets each vacated slot to it, so the queue never retains
   popped events. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable events : 'a array; (* dummy above [size] *)
  dummy : 'a;
  mutable size : int;
  mutable next_seq : int;
}

let initial_capacity = 16

let create ~dummy () =
  {
    times = Array.make initial_capacity 0.0;
    seqs = Array.make initial_capacity 0;
    events = Array.make initial_capacity dummy;
    dummy;
    size = 0;
    next_seq = 0;
  }

let length t = t.size

(* Strict (time, seq) heap order between two live slots. *)
let slot_lt t i j =
  t.times.(i) < t.times.(j)
  || (t.times.(i) = t.times.(j) && t.seqs.(i) < t.seqs.(j))

let swap t i j =
  let time = t.times.(i) and seq = t.seqs.(i) in
  let event = t.events.(i) in
  t.times.(i) <- t.times.(j);
  t.seqs.(i) <- t.seqs.(j);
  t.events.(i) <- t.events.(j);
  t.times.(j) <- time;
  t.seqs.(j) <- seq;
  t.events.(j) <- event

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if slot_lt t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < t.size && slot_lt t left !smallest then smallest := left;
  if right < t.size && slot_lt t right !smallest then smallest := right;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let grow t =
  let capacity = 2 * Array.length t.times in
  let times = Array.make capacity 0.0 in
  let seqs = Array.make capacity 0 in
  let events = Array.make capacity t.dummy in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.events 0 events 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.events <- events

let[@hot] push t ~time event =
  if Float.is_nan time then invalid_arg "Event_queue.push: NaN time";
  if t.size = Array.length t.times then grow t;
  t.times.(t.size) <- time;
  t.seqs.(t.size) <- t.next_seq;
  t.events.(t.size) <- event;
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let peek_time t = if t.size = 0 then None else Some t.times.(0)

(* Remove the root, restore the heap, return the root's payload. *)
let[@hot] pop_root t =
  let event = t.events.(0) in
  t.size <- t.size - 1;
  t.times.(0) <- t.times.(t.size);
  t.seqs.(0) <- t.seqs.(t.size);
  t.events.(0) <- t.events.(t.size);
  t.events.(t.size) <- t.dummy;
  if t.size > 0 then sift_down t 0;
  event

let[@hot] pop t =
  if t.size = 0 then None
  else begin
    let time = t.times.(0) in
    let event = pop_root t in
    (* lint: allow P3 — API boundary: one (time, event) pair per pop, destructured immediately by callers *)
    Some (time, event)
  end

let[@hot] pop_until t ~until =
  if t.size = 0 || t.times.(0) > until then None else pop t

let[@hot] drain_until t ~until ~f =
  let drained = ref 0 in
  while t.size > 0 && t.times.(0) <= until do
    let time = t.times.(0) in
    let event = pop_root t in
    incr drained;
    f ~time event
  done;
  !drained
