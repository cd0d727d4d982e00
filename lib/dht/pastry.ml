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

let shared_prefix_length a b =
  let rec walk i = if i >= digits then digits
    else if key_digit a i = key_digit b i then walk (i + 1) else i
  in
  walk 0

(* Numeric circular distance: min(clockwise, counter-clockwise). *)
let circular_distance a b =
  let cw = Key.to_float (Key.distance_cw a b) in
  let ccw = Key.to_float (Key.distance_cw b a) in
  Float.min cw ccw

type node = {
  id : Key.t;
  mutable alive : bool;
  mutable leaf_left : Key.t list; (* counter-clockwise, nearest first *)
  mutable leaf_right : Key.t list; (* clockwise, nearest first *)
  table : Key.t option array array; (* digits x radix *)
}

type t = {
  nodes : (Key.t, node) Hashtbl.t;
  prng : Stdx.Prng.t;
}

(* Leaf neighbours kept on each side of a node. *)
let leaf_set_radius = 8

let create ?(seed = 1L) () = { nodes = Hashtbl.create 64; prng = Stdx.Prng.create ~seed }

let node_of t key =
  match Hashtbl.find_opt t.nodes key with
  | Some n -> n
  | None -> invalid_arg "Pastry: dangling node reference"

let is_alive t key =
  match Hashtbl.find_opt t.nodes key with Some n -> n.alive | None -> false

let live_keys t =
  List.filter_map
    (fun (k, n) -> if n.alive then Some k else None)
    (Stdx.Det_tbl.sorted_bindings ~compare:Key.compare t.nodes)

let live_count t =
  Hashtbl.fold (fun _ n acc -> if n.alive then acc + 1 else acc) t.nodes 0

let responsible_oracle t key =
  match live_keys t with
  | [] -> raise Not_found
  | keys ->
      let best = ref (List.hd keys) in
      List.iter
        (fun candidate ->
          let d = circular_distance key candidate in
          let best_d = circular_distance key !best in
          if d < best_d || (d = best_d && Key.compare candidate !best < 0) then
            best := candidate)
        keys;
      !best

(* ------------------------------------------------------------------ *)
(* Per-node views. *)

let known_nodes t n =
  let table_entries =
    Array.to_list n.table
    |> List.concat_map (fun row -> Array.to_list row |> List.filter_map Fun.id)
  in
  List.filter (is_alive t) (n.leaf_left @ n.leaf_right @ table_entries)

let leaf_candidates t n = List.filter (is_alive t) (n.leaf_left @ n.leaf_right)

let closest_to key candidates =
  List.fold_left
    (fun best candidate ->
      match best with
      | None -> Some candidate
      | Some b ->
          let d = circular_distance key candidate and bd = circular_distance key b in
          if d < bd || (d = bd && Key.compare candidate b < 0) then Some candidate
          else best)
    None candidates

(* Is [key] within this node's leaf-set span — the arc from the farthest
   left leaf through the node itself to the farthest right leaf?  With a
   partial or overlapping leaf set (small networks) the span is the whole
   ring. *)
let in_leaf_range t n key =
  let left = List.filter (is_alive t) n.leaf_left in
  let right = List.filter (is_alive t) n.leaf_right in
  match (List.rev left, List.rev right) with
  | [], _ | _, [] -> true
  | far_left :: _, far_right :: _ ->
      (* Overlapping leaf sets mean the node knows every peer. *)
      List.exists (fun k -> List.exists (Key.equal k) right) left
      || Key.equal key far_left
      || Key.in_interval_oc key ~lo:far_left ~hi:n.id
      || Key.in_interval_oc key ~lo:n.id ~hi:far_right

exception Routing_failure of string

let route t ~from key =
  let limit = (2 * digits) + 8 in
  let rec step current hops =
    if hops > limit then raise (Routing_failure "Pastry route did not converge");
    let n = node_of t current in
    if Key.equal current key then (current, hops + 1)
    else if in_leaf_range t n key then begin
      (* Deliver to the numerically closest node among self and leaves. *)
      match closest_to key (current :: leaf_candidates t n) with
      | Some best when not (Key.equal best current) -> step_deliver best current hops
      | Some _ | None -> (current, hops + 1)
    end
    else begin
      let l = shared_prefix_length current key in
      let next_digit = key_digit key l in
      match n.table.(l).(next_digit) with
      | Some candidate when is_alive t candidate -> step candidate (hops + 1)
      | Some _ | None ->
          (* Rare case: no table entry; take any known node closer to the
             key without shortening the prefix. *)
          let better candidate =
            shared_prefix_length candidate key >= l
            && circular_distance key candidate < circular_distance key current
          in
          (match List.find_opt better (known_nodes t n) with
          | Some candidate -> step candidate (hops + 1)
          | None -> (current, hops + 1))
    end
  and step_deliver best current hops =
    (* One more hop into the leaf set; the receiving node re-checks with its
       own (wider) leaf set. *)
    if Key.equal best current then (current, hops + 1) else step best (hops + 1)
  in
  step from 0

let lookup t ?from key =
  let from =
    match from with
    | Some f -> f
    | None -> ( match live_keys t with [] -> raise Not_found | k :: _ -> k)
  in
  if not (is_alive t from) then invalid_arg "Pastry.lookup: start node is not alive";
  route t ~from key

(* ------------------------------------------------------------------ *)
(* State construction and maintenance. *)

let blank_node id =
  {
    id;
    alive = true;
    leaf_left = [];
    leaf_right = [];
    table = Array.make_matrix digits radix None;
  }

let rec take k = function
  | [] -> []
  | x :: rest -> if k = 0 then [] else x :: take (k - 1) rest

(* Rebuild one node's leaf set from a candidate pool (always includes the
   global live set when called from [repair]). *)
let set_leaves t n candidates =
  let others =
    List.sort_uniq Key.compare (List.filter (fun k -> is_alive t k && not (Key.equal k n.id)) candidates)
  in
  let by_cw_distance =
    List.sort
      (fun a b -> Key.compare (Key.distance_cw n.id a) (Key.distance_cw n.id b))
      others
  in
  let by_ccw_distance =
    List.sort
      (fun a b -> Key.compare (Key.distance_cw a n.id) (Key.distance_cw b n.id))
      others
  in
  n.leaf_right <- take leaf_set_radius by_cw_distance;
  n.leaf_left <- take leaf_set_radius by_ccw_distance

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

let rebuild_globally t =
  let keys = live_keys t in
  List.iter
    (fun key ->
      let n = node_of t key in
      set_leaves t n keys;
      Array.iteri (fun r row -> Array.iteri (fun c _ -> n.table.(r).(c) <- None) row) n.table;
      fill_table_from t n keys)
    keys

let create_network ?seed ~node_count () =
  if node_count <= 0 then invalid_arg "Pastry.create_network: need at least one node";
  let t = create ?seed () in
  for _ = 1 to node_count do
    let rec fresh () =
      let k = Key.random t.prng in
      if Hashtbl.mem t.nodes k then fresh () else k
    in
    Hashtbl.replace t.nodes (fresh ()) (blank_node Key.zero)
  done;
  (* The blank nodes above carry the wrong ids; rebuild them properly. *)
  let keys = Stdx.Det_tbl.sorted_keys ~compare:Key.compare t.nodes in
  Hashtbl.reset t.nodes;
  List.iter (fun k -> Hashtbl.replace t.nodes k (blank_node k)) keys;
  rebuild_globally t;
  t

let join_with_key t key =
  if is_alive t key then invalid_arg "Pastry.join_with_key: identifier already joined";
  match live_keys t with
  | [] -> Hashtbl.replace t.nodes key (blank_node key)
  | bootstrap :: _ ->
      (* Route the join towards the new identifier; harvest state from the
         nodes along the path (rows from each hop, leaves from the target),
         then announce to the new leaf set (Pastry join, Section 2.4). *)
      let path = ref [] in
      let owner, _hops =
        (* Reuse [route] but record hops by instrumenting known steps: the
           simple way is to route and then collect the path again greedily;
           for state harvesting the target's view suffices in practice. *)
        route t ~from:bootstrap key
      in
      path := [ bootstrap; owner ];
      let n = blank_node key in
      Hashtbl.replace t.nodes key n;
      let owner_node = node_of t owner in
      set_leaves t n (owner :: (owner_node.leaf_left @ owner_node.leaf_right));
      List.iter
        (fun hop ->
          let hop_node = node_of t hop in
          fill_table_from t n (hop :: known_nodes t hop_node))
        !path;
      (* Announce: every node in the new node's neighbourhood refreshes its
         leaf set and table with the newcomer. *)
      List.iter
        (fun neighbour ->
          let m = node_of t neighbour in
          set_leaves t m (key :: (m.leaf_left @ m.leaf_right));
          fill_table_from t m [ key ])
        (n.leaf_left @ n.leaf_right);
      fill_table_from t owner_node [ key ]

let join t =
  let rec fresh () =
    let k = Key.random t.prng in
    if Hashtbl.mem t.nodes k then fresh () else k
  in
  let key = fresh () in
  join_with_key t key;
  key

let leave t key =
  match Hashtbl.find_opt t.nodes key with
  | Some n when n.alive -> n.alive <- false
  | Some _ | None -> raise Not_found

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
  let keys = Array.of_list (live_keys t) in
  let count = Array.length keys in
  if count = 0 then invalid_arg "Pastry.resolver: empty overlay";
  let ring = Resolver.ring keys in
  let index_of key =
    (* Numerically closest node: the ring successor or its predecessor. *)
    let successor = Resolver.ring_successor ring key in
    let predecessor = (successor + count - 1) mod count in
    let ds = circular_distance key keys.(successor) in
    let dp = circular_distance key keys.(predecessor) in
    if dp < ds || (dp = ds && Key.compare keys.(predecessor) keys.(successor) < 0) then
      predecessor
    else successor
  in
  {
    Resolver.node_count = count;
    responsible = index_of;
    route_hops =
      (fun key ->
        let _owner, hops = lookup t key in
        hops);
    replicas_into =
      (fun key r buf ->
        (* The leaf-set neighbourhood of the primary, in ring order. *)
        Resolver.ring_replicas_into ~node_count:count ~primary:(index_of key) r buf);
  }
