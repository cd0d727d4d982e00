(* Classic design: entries live in a hash table for O(1) lookup and in an
   intrusive doubly-linked list ordered by recency (head = most recent).
   The list uses option-linked records; the invariants are
     - head has no prev, tail has no next,
     - table and list always hold exactly the same entries. *)

type ('k, 'v) entry = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) entry option;
  mutable next : ('k, 'v) entry option;
}

type ('k, 'v) t = {
  capacity : int option;
  on_evict : 'k -> 'v -> unit;
  table : ('k, ('k, 'v) entry) Hashtbl.t;
  mutable head : ('k, 'v) entry option;
  mutable tail : ('k, 'v) entry option;
}

let create ?capacity ?(on_evict = fun _ _ -> ()) () =
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Lru.create: capacity must be positive"
  | Some _ | None -> ());
  { capacity; on_evict; table = Hashtbl.create 16; head = None; tail = None }

let length t = Hashtbl.length t.table

let unlink t entry =
  (match entry.prev with
  | Some p -> p.next <- entry.next
  | None -> t.head <- entry.next);
  (match entry.next with
  | Some n -> n.prev <- entry.prev
  | None -> t.tail <- entry.prev);
  entry.prev <- None;
  entry.next <- None

let push_front t entry =
  entry.next <- t.head;
  entry.prev <- None;
  (match t.head with Some h -> h.prev <- Some entry | None -> t.tail <- Some entry);
  t.head <- Some entry

let touch t entry =
  match t.head with
  (* lint: allow phys-equal — intrusive-list node identity, not structural equality *)
  | Some h when h == entry -> ()
  | Some _ | None ->
      unlink t entry;
      push_front t entry

let find t k =
  match Hashtbl.find_opt t.table k with
  | None -> None
  | Some entry ->
      touch t entry;
      Some entry.value

let peek t k =
  match Hashtbl.find_opt t.table k with None -> None | Some entry -> Some entry.value

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some entry ->
      unlink t entry;
      Hashtbl.remove t.table entry.key;
      t.on_evict entry.key entry.value

let add t k v =
  match Hashtbl.find_opt t.table k with
  | Some entry ->
      entry.value <- v;
      touch t entry
  | None ->
      (match t.capacity with
      | Some c when Hashtbl.length t.table >= c -> evict_lru t
      | Some _ | None -> ());
      let entry = { key = k; value = v; prev = None; next = None } in
      Hashtbl.replace t.table k entry;
      push_front t entry

let remove t k =
  match Hashtbl.find_opt t.table k with
  | None -> false
  | Some entry ->
      unlink t entry;
      Hashtbl.remove t.table k;
      true

let fold t ~init ~f =
  let rec walk acc = function
    | None -> acc
    | Some entry -> walk (f acc entry.key entry.value) entry.next
  in
  walk init t.head

let to_list t = List.rev (fold t ~init:[] ~f:(fun acc k v -> (k, v) :: acc))

let clear t =
  Hashtbl.reset t.table;
  t.head <- None;
  t.tail <- None
