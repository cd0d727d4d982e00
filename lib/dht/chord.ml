module Key = Hashing.Key

(* Every node is a mutable record addressed by its ring identifier.  The
   implementation follows the SIGCOMM 2001 pseudocode: find_successor /
   closest_preceding_node for routing, and stabilize / notify / fix_fingers /
   check_predecessor as the periodic maintenance driven by
   [stabilize_round].  Failures are abrupt (a node is marked dead) and
   repaired through successor lists, as in the paper's failure handling. *)

type node = {
  id : Key.t;
  mutable alive : bool;
  mutable successor : Key.t;
  mutable predecessor : Key.t option;
  fingers : Key.t array;
  mutable successor_list : Key.t list;
}

(* Substrate health counters, prefetched from the registry at creation. *)
type instruments = {
  stabilization_rounds : Obs.Metrics.Counter.t;
  failed_lookups : Obs.Metrics.Counter.t;
}

(* [live] counts the alive nodes and [first_live] caches the minimal
   live identifier ([None]: not known), so default-origin lookups and
   the routing bound never fold the node table.  Joins and failures —
   [insert_node] and [leave], the only writers of [alive] — keep both
   current. *)
type t = {
  nodes : (Key.t, node) Hashtbl.t;
  prng : Stdx.Prng.t;
  successor_list_length : int;
  instruments : instruments option;
  mutable live : int;
  mutable first_live : Key.t option;
}

let create ?metrics ?(seed = 1L) ?(successor_list_length = 8) () =
  if successor_list_length < 1 then
    invalid_arg "Chord.create: successor list must hold at least one entry";
  let instruments =
    Option.map
      (fun registry ->
        {
          stabilization_rounds =
            Obs.Metrics.counter registry
              ~help:"Chord maintenance rounds executed over all live nodes"
              "p2pindex_chord_stabilization_rounds_total";
          failed_lookups =
            Obs.Metrics.counter registry
              ~help:"Chord lookups abandoned because routing did not converge"
              "p2pindex_chord_failed_lookups_total";
        })
      metrics
  in
  {
    nodes = Hashtbl.create 64;
    prng = Stdx.Prng.create ~seed;
    successor_list_length;
    instruments;
    live = 0;
    first_live = None;
  }

let node_of t key =
  match Hashtbl.find_opt t.nodes key with
  | Some n -> n
  | None -> invalid_arg "Chord: dangling node reference"

let is_alive t key =
  match Hashtbl.find_opt t.nodes key with Some n -> n.alive | None -> false

let live_keys t =
  List.filter_map
    (fun (k, n) -> if n.alive then Some k else None)
    (Stdx.Det_tbl.sorted_bindings ~compare:Key.compare t.nodes)

let live_count t = t.live

(* The minimal live key — the head [live_keys] would produce.  On a
   cache miss one fold over the table finds it; the result stays cached
   until the node it names fails. *)
let[@hot] first_live t =
  match t.first_live with
  | Some k -> k
  | None -> (
      let best =
        (* lint: allow D2 — min accumulator: commutative-associative, bucket order cannot change the result *)
        Hashtbl.fold
          (fun k n acc ->
            if not n.alive then acc
            else
              match acc with
              | Some b when Key.compare b k <= 0 -> acc
              | Some _ | None -> Some k)
          t.nodes None
      in
      t.first_live <- best;
      match best with Some k -> k | None -> raise Not_found)

(* Ground truth: the live successor of [key] on the ring. *)
let responsible_oracle t key =
  let keys = live_keys t in
  match keys with
  | [] -> raise Not_found
  | first :: _ ->
      let rec walk = function
        | [] -> first (* wrap around *)
        | k :: rest -> if Key.compare k key >= 0 then k else walk rest
      in
      walk keys

(* The first live entry of a node's successor chain; the node itself when
   everything it knows about is dead (a partition stabilization must fix). *)
let live_successor t n =
  let candidates = n.successor :: n.successor_list in
  let rec pick = function
    | [] -> n.id
    | k :: rest -> if is_alive t k && not (Key.equal k n.id) then k else pick rest
  in
  if is_alive t n.successor then n.successor else pick candidates

let closest_preceding_node t n key =
  (* Scan fingers from the most distant down, keeping only live nodes
     strictly inside (n, key). *)
  let rec scan i =
    if i < 0 then n.id
    else
      let f = n.fingers.(i) in
      if is_alive t f && Key.in_interval_oo f ~lo:n.id ~hi:key then f else scan (i - 1)
  in
  scan (Key.bits - 1)

exception Routing_failure of string

let count_failed_lookup t =
  match t.instruments with
  | Some ins -> Obs.Metrics.Counter.incr ins.failed_lookups
  | None -> ()

let find_successor t ~from key =
  let limit = (2 * live_count t) + Key.bits in
  let rec route current hops =
    if hops > limit then begin
      count_failed_lookup t;
      raise (Routing_failure "routing did not converge")
    end;
    let n = node_of t current in
    let succ = live_successor t n in
    if Key.in_interval_oc key ~lo:n.id ~hi:succ then (succ, hops + 1)
    else
      let next = closest_preceding_node t n key in
      if Key.equal next n.id then
        (* No finger improves on the successor: forward to it. *)
        route succ (hops + 1)
      else route next (hops + 1)
  in
  route from 0

let lookup t ?from key =
  let from = match from with Some f -> f | None -> first_live t in
  if not (is_alive t from) then invalid_arg "Chord.lookup: start node is not alive";
  find_successor t ~from key

(* ------------------------------------------------------------------ *)
(* Membership. *)

let insert_node t key successor =
  let n =
    {
      id = key;
      alive = true;
      successor;
      predecessor = None;
      fingers = Array.make Key.bits successor;
      successor_list = [];
    }
  in
  (* Only a dead node's identifier can be rejoined, so the live count
     always grows. *)
  Hashtbl.replace t.nodes key n;
  t.live <- t.live + 1;
  (match t.first_live with
  | Some b when Key.compare key b < 0 -> t.first_live <- Some key
  | Some _ | None -> ());
  n

let join_with_key t key =
  if is_alive t key then invalid_arg "Chord.join_with_key: identifier already joined";
  match live_keys t with
  | [] ->
      (* First node: its own successor. *)
      let n = insert_node t key key in
      n.fingers.(0) <- key
  | bootstrap :: _ ->
      let succ, _hops = find_successor t ~from:bootstrap key in
      ignore (insert_node t key succ)

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
  | Some n when n.alive ->
      n.alive <- false;
      t.live <- t.live - 1;
      (match t.first_live with
      | Some b when Key.equal b key -> t.first_live <- None
      | Some _ | None -> ())
  | Some _ | None -> raise Not_found

(* ------------------------------------------------------------------ *)
(* Maintenance. *)

let stabilize_node t n =
  let succ_key = live_successor t n in
  n.successor <- succ_key;
  let succ = node_of t succ_key in
  (match succ.predecessor with
  | Some x when is_alive t x && Key.in_interval_oo x ~lo:n.id ~hi:succ.id ->
      n.successor <- x
  | Some _ | None -> ());
  (* notify: tell our (possibly updated) successor about us. *)
  let succ = node_of t (live_successor t n) in
  (match succ.predecessor with
  | Some p when is_alive t p && Key.in_interval_oo n.id ~lo:p ~hi:succ.id ->
      succ.predecessor <- Some n.id
  | Some p when is_alive t p -> ()
  | Some _ | None -> if not (Key.equal succ.id n.id) then succ.predecessor <- Some n.id)

let check_predecessor t n =
  match n.predecessor with
  | Some p when not (is_alive t p) -> n.predecessor <- None
  | Some _ | None -> ()

let refresh_successor_list t n =
  let succ_key = live_successor t n in
  let succ = node_of t succ_key in
  let list = succ_key :: succ.successor_list in
  let rec take k = function
    | [] -> []
    | x :: rest -> if k = 0 then [] else x :: take (k - 1) rest
  in
  n.successor_list <- take t.successor_list_length (List.filter (is_alive t) list)

let fix_fingers t n =
  for i = 0 to Key.bits - 1 do
    let target = Key.add_pow2 n.id i in
    match find_successor t ~from:n.id target with
    | owner, _hops -> n.fingers.(i) <- owner
    | exception Routing_failure _ -> ()
  done

let stabilize_round t =
  (match t.instruments with
  | Some ins -> Obs.Metrics.Counter.incr ins.stabilization_rounds
  | None -> ());
  let keys = live_keys t in
  List.iter
    (fun key ->
      let n = node_of t key in
      if n.alive then begin
        check_predecessor t n;
        stabilize_node t n;
        refresh_successor_list t n;
        fix_fingers t n
      end)
    keys

let stabilize t ~rounds =
  for _ = 1 to rounds do
    stabilize_round t
  done

(* ------------------------------------------------------------------ *)
(* Convergence check against the oracle. *)

let is_converged t =
  let keys = live_keys t in
  match keys with
  | [] -> true
  | _ :: _ ->
      List.for_all
        (fun key ->
          let n = node_of t key in
          let expected_succ = responsible_oracle t (Key.succ n.id) in
          Key.equal (live_successor t n) expected_succ
          && Array.length n.fingers = Key.bits
          &&
          let finger_ok i f =
            let target = Key.add_pow2 n.id i in
            Key.equal f (responsible_oracle t target)
          in
          let rec all i = i >= Key.bits || (finger_ok i n.fingers.(i) && all (i + 1)) in
          all 0)
        keys

(* ------------------------------------------------------------------ *)
(* Bootstrap a converged network quickly: join every node, then install the
   oracle routing state directly (equivalent to running stabilization to
   convergence, in O(n log n) instead of many protocol rounds). *)

let repair_globally t =
  let keys = Array.of_list (live_keys t) in
  let count = Array.length keys in
  if count > 0 then begin
    let ring = Resolver.ring keys in
    (* First live node >= key, wrapping. *)
    let responsible key = keys.(Resolver.ring_successor ring key) in
    Array.iteri
      (fun i key ->
        let n = node_of t key in
        n.successor <- keys.((i + 1) mod count);
        n.predecessor <- Some keys.((i + count - 1) mod count);
        let rec successors acc j k =
          if k = 0 then List.rev acc
          else successors (keys.((j + 1) mod count) :: acc) ((j + 1) mod count) (k - 1)
        in
        n.successor_list <- successors [] i (Stdlib.min t.successor_list_length (count - 1));
        for b = 0 to Key.bits - 1 do
          n.fingers.(b) <- responsible (Key.add_pow2 key b)
        done)
      keys
  end

let create_network ?metrics ?seed ?successor_list_length ~node_count () =
  if node_count <= 0 then invalid_arg "Chord.create_network: need at least one node";
  let t = create ?metrics ?seed ?successor_list_length () in
  for _ = 1 to node_count do
    ignore (join t)
  done;
  repair_globally t;
  t

(* ------------------------------------------------------------------ *)

let resolver t =
  let keys = Array.of_list (live_keys t) in
  let count = Array.length keys in
  if count = 0 then invalid_arg "Chord.resolver: empty ring";
  let index_of = Resolver.ring_successor (Resolver.ring keys) in
  {
    Resolver.node_count = count;
    responsible = (fun key -> index_of key);
    route_hops =
      (fun key ->
        let _owner, hops = lookup t key in
        hops);
    replicas_into =
      (fun key r buf ->
        Resolver.ring_replicas_into ~node_count:count ~primary:(index_of key) r buf);
  }
