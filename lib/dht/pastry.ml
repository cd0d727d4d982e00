module Key = Hashing.Key

(* Identifiers are read as 40 hexadecimal digits (b = 4).  Each node keeps
   - a leaf set: the [radius] numerically closest live nodes on each side;
   - a routing table: row r holds, per digit d, some node sharing the first
     r digits with this node and having digit d at position r.
   Routing (Rowstron & Druschel, Section 2.3): deliver within the leaf-set
   range to the numerically closest entry; otherwise follow the routing
   table; otherwise any known node strictly closer to the key that does not
   shorten the shared prefix. *)

let digits = 40
let radix = 16

let key_digit = Key.nibble

let shared_prefix_length a b = Key.common_prefix_bits a b / 4

type node = {
  id : Key.t;
  mutable leaf_left : Key.t list; (* counter-clockwise, nearest first *)
  mutable leaf_right : Key.t list; (* clockwise, nearest first *)
  table : Key.t option array array; (* digits x radix *)
}

type t = node Members.t

(* Leaf neighbours kept on each side of a node. *)
let leaf_set_radius = 8

let create ?(seed = 1L) () = Members.create ~seed ()

let node_of = Members.find
let is_alive = Members.is_alive
let live_keys = Members.live_keys
let live_count = Members.live_count

(* Numerically closest live node: the ring successor or its
   predecessor, ties to the smaller identifier. *)
let owner_index ring key =
  let count = Resolver.ring_length ring in
  let successor = Resolver.ring_successor ring key in
  let predecessor = (successor + count - 1) mod count in
  let s = Resolver.ring_key ring successor and p = Resolver.ring_key ring predecessor in
  let c = Key.compare_circular ~target:key p s in
  if c < 0 || (c = 0 && Key.compare p s < 0) then predecessor else successor

let responsible_oracle t key = Members.owner t owner_index key

(* ------------------------------------------------------------------ *)
(* Per-node views. *)

let known_nodes t n =
  let table_entries =
    Array.fold_right (Array.fold_right (fun e acc -> match e with Some k -> k :: acc | None -> acc)) n.table []
  in
  List.filter (is_alive t) (n.leaf_left @ n.leaf_right @ table_entries)

(* The numerically closest to [key] of [best] and the live [leaves],
   ties to the smaller identifier. *)
let rec nearest_from t key best = function
  | [] -> best
  | c :: rest ->
      let best =
        if not (is_alive t c) then best
        else
          let d = Key.compare_circular ~target:key c best in
          if d < 0 || (d = 0 && Key.compare c best < 0) then c else best
      in
      nearest_from t key best rest

(* The numerically closest to [key] of the node itself and its live
   leaves, ties to the smaller identifier. *)
let nearest_leaf t n key = nearest_from t key (nearest_from t key n.id n.leaf_left) n.leaf_right

(* The last live leaf of a side, nearest first; [far] when none is. *)
let rec farthest_live t far = function
  | [] -> far
  | k :: rest -> farthest_live t (if is_alive t k then k else far) rest

let rec holds k = function [] -> false | x :: rest -> Key.equal x k || holds k rest

(* Does a live leaf of [left] sit on the [right] side too? *)
let rec overlap t right = function
  | [] -> false
  | k :: left -> (is_alive t k && holds k right) || overlap t right left

(* Is [key] within this node's leaf-set span — the arc from the farthest
   left leaf through the node itself to the farthest right leaf?  With a
   partial or overlapping leaf set (small networks) the span is the whole
   ring.  Leaves never hold the node itself, so [n.id] marks an empty
   side. *)
let in_leaf_range t n key =
  let far_left = farthest_live t n.id n.leaf_left in
  let far_right = farthest_live t n.id n.leaf_right in
  Key.equal far_left n.id || Key.equal far_right n.id
  (* Overlapping leaf sets mean the node knows every peer. *)
  || overlap t n.leaf_right n.leaf_left
  || Key.equal key far_left
  || Key.in_interval_oc key ~lo:far_left ~hi:n.id
  || Key.in_interval_oc key ~lo:n.id ~hi:far_right

(* Is the live node [c] closer to [key] than [current], without
   shortening the [l] digits [current] shares with [key]? *)
let better t key ~l ~current c =
  is_alive t c
  && shared_prefix_length c key >= l
  && Key.compare_circular ~target:key c current < 0

(* The first better node of a leaf side; [current] when none is. *)
let rec better_leaf t key ~l ~current = function
  | [] -> current
  | c :: rest -> if better t key ~l ~current c then c else better_leaf t key ~l ~current rest

(* The first better node of the routing table from row [r], digit [d]
   on, row by row; [current] when none is. *)
let rec better_entry t key ~l ~current table r d =
  if r = digits then current
  else if d = radix then better_entry t key ~l ~current table (r + 1) 0
  else
    match table.(r).(d) with
    | Some c when better t key ~l ~current c -> c
    | Some _ | None -> better_entry t key ~l ~current table r (d + 1)

(* The first better node the node knows, in {!known_nodes}' order: its
   left leaves, its right leaves, then its routing table; [current]
   (never better than itself) when none is. *)
let better_known t n key ~l ~current =
  let c = better_leaf t key ~l ~current n.leaf_left in
  if not (Key.equal c current) then c
  else
    let c = better_leaf t key ~l ~current n.leaf_right in
    if not (Key.equal c current) then c else better_entry t key ~l ~current n.table 0 0

exception Routing_failure of string

let route_limit = (2 * digits) + 8

let rec step t key current hops =
  if hops > route_limit then raise (Routing_failure "Pastry route did not converge");
  let n = node_of t current in
  if Key.equal current key then (current, hops + 1)
  else if in_leaf_range t n key then begin
    (* Deliver to the numerically closest node among self and leaves;
       the receiving node re-checks with its own (wider) leaf set. *)
    let best = nearest_leaf t n key in
    if Key.equal best current then (current, hops + 1) else step t key best (hops + 1)
  end
  else begin
    let l = shared_prefix_length current key in
    match n.table.(l).(key_digit key l) with
    | Some candidate when is_alive t candidate -> step t key candidate (hops + 1)
    | Some _ | None ->
        (* Rare case: no table entry; take any known node closer to the
           key without shortening the prefix. *)
        let candidate = better_known t n key ~l ~current in
        if Key.equal candidate current then (current, hops + 1)
        else step t key candidate (hops + 1)
  end

let route t ~from key = step t key from 0

let lookup t ?from key =
  let from = match from with Some f -> f | None -> Members.first_live t in
  if not (is_alive t from) then invalid_arg "Pastry.lookup: start node is not alive";
  route t ~from key

(* ------------------------------------------------------------------ *)
(* State construction and maintenance. *)

let blank_node id =
  {
    id;
    leaf_left = [];
    leaf_right = [];
    table = Array.make_matrix digits radix None;
  }

(* Clockwise order from [self] (which neither key is): the keys above it
   ascending, then the keys below it ascending. *)
let compare_cw self a b =
  let above = Key.compare a self > 0 in
  if Bool.equal above (Key.compare b self > 0) then Key.compare a b else if above then -1 else 1

(* Rebuild one node's leaf set from a candidate pool.  Over distinct
   keys the counter-clockwise order is the clockwise one reversed. *)
let set_leaves t n candidates =
  let clockwise =
    List.sort_uniq (compare_cw n.id)
      (List.filter (fun k -> is_alive t k && not (Key.equal k n.id)) candidates)
  in
  n.leaf_right <- List.filteri (fun i _ -> i < leaf_set_radius) clockwise;
  n.leaf_left <- List.filteri (fun i _ -> i < leaf_set_radius) (List.rev clockwise)

let fill_table_from t n candidates =
  List.iter
    (fun candidate ->
      if is_alive t candidate && not (Key.equal candidate n.id) then begin
        let l = shared_prefix_length n.id candidate in
        let d = key_digit candidate l in
        match n.table.(l).(d) with
        | Some existing when is_alive t existing -> ()
        | Some _ | None -> n.table.(l).(d) <- Some candidate
      end)
    candidates

let purge_dead t n =
  n.leaf_left <- List.filter (is_alive t) n.leaf_left;
  n.leaf_right <- List.filter (is_alive t) n.leaf_right;
  Array.iter
    (fun row ->
      Array.iteri
        (fun i entry ->
          match entry with
          | Some key when not (is_alive t key) -> row.(i) <- None
          | Some _ | None -> ())
        row)
    n.table

(* The nearest ring neighbours of position [i] in direction [dir] (1
   clockwise, -1 counter-clockwise): [set_leaves] over every live key. *)
let ring_leaves ring i dir =
  let m = Resolver.ring_length ring in
  List.init (min leaf_set_radius (m - 1)) (fun j -> Resolver.ring_key ring ((i + (dir * (j + 1)) + m) mod m))

let create_network ?seed ~node_count () =
  if node_count <= 0 then invalid_arg "Pastry.create_network: need at least one node";
  let t = create ?seed () in
  for _ = 1 to node_count do
    let key = Members.fresh_key t in
    Members.add t key (blank_node key)
  done;
  let ring = Members.ring t and keys = live_keys t in
  List.iteri
    (fun i key ->
      let n = node_of t key in
      n.leaf_right <- ring_leaves ring i 1;
      n.leaf_left <- ring_leaves ring i (-1);
      fill_table_from t n keys)
    keys;
  t

let join_with_key t key =
  if is_alive t key then invalid_arg "Pastry.join_with_key: identifier already joined";
  if live_count t = 0 then Members.add t key (blank_node key)
  else begin
    (* Route the join towards the new identifier; harvest routing rows
       from the bootstrap node and the owner the route reaches, leaves
       from the owner, then announce to the new leaf set (Pastry join,
       Section 2.4). *)
    let bootstrap = Members.first_live t in
    let owner, _hops = route t ~from:bootstrap key in
    let n = blank_node key in
    Members.add t key n;
    let owner_node = node_of t owner in
    set_leaves t n (owner :: (owner_node.leaf_left @ owner_node.leaf_right));
    List.iter
      (fun hop -> fill_table_from t n (hop :: known_nodes t (node_of t hop)))
      [ bootstrap; owner ];
    (* Announce: every node in the new node's neighbourhood refreshes its
       leaf set and table with the newcomer. *)
    List.iter
      (fun neighbour ->
        let m = node_of t neighbour in
        set_leaves t m (key :: (m.leaf_left @ m.leaf_right));
        fill_table_from t m [ key ])
      (n.leaf_left @ n.leaf_right);
    fill_table_from t owner_node [ key ]
  end

let join t =
  let key = Members.fresh_key t in
  join_with_key t key;
  key

let leave = Members.fail

let repair t =
  let keys = live_keys t in
  List.iter
    (fun key ->
      let n = node_of t key in
      purge_dead t n;
      (* Refill leaves from the neighbours' leaf sets (leaf-set repair). *)
      let pool =
        List.concat_map
          (fun neighbour ->
            if is_alive t neighbour then
              let m = node_of t neighbour in
              neighbour :: (m.leaf_left @ m.leaf_right)
            else [])
          (n.leaf_left @ n.leaf_right)
      in
      set_leaves t n (pool @ n.leaf_left @ n.leaf_right);
      fill_table_from t n (known_nodes t n))
    keys

(* ------------------------------------------------------------------ *)

let is_converged t =
  match live_keys t with
  | [] -> true
  | keys ->
      List.for_all
        (fun from ->
          List.for_all
            (fun target ->
              match lookup t ~from target with
              | owner, _ -> Key.equal owner target
              | exception Routing_failure _ -> false)
            keys)
        keys

let resolver t =
  Resolver.of_ring (Members.ring t) ~owner:owner_index ~route_hops:(fun key -> snd (lookup t key)) ()
