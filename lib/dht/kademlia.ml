module Key = Hashing.Key

(* Bucket index: position of the highest differing bit (0..159), i.e. the
   distance scale.  None when the keys are equal. *)
let bucket_index a b =
  let d = Key.xor a b in
  let rec scan nibble =
    if nibble >= 40 then None
    else
      let v = Key.nibble d nibble in
      if v = 0 then scan (nibble + 1)
      else
        let bit_in_nibble =
          if v >= 8 then 3 else if v >= 4 then 2 else if v >= 2 then 1 else 0
        in
        Some ((4 * (39 - nibble)) + bit_in_nibble)
  in
  scan 0

type node = {
  id : Key.t;
  mutable alive : bool;
  buckets : Key.t list array; (* per distance scale; most recently seen last *)
}

type t = {
  nodes : (Key.t, node) Hashtbl.t;
  prng : Stdx.Prng.t;
  k : int;
  alpha : int;
}

let create ?(seed = 1L) ?(k = 8) ?(alpha = 3) () =
  if k < 1 || alpha < 1 then invalid_arg "Kademlia.create: k and alpha must be positive";
  { nodes = Hashtbl.create 64; prng = Stdx.Prng.create ~seed; k; alpha }

let node_of t key =
  match Hashtbl.find_opt t.nodes key with
  | Some n -> n
  | None -> invalid_arg "Kademlia: dangling node reference"

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
  | first :: rest ->
      List.fold_left
        (fun best candidate ->
          if Key.compare_xor ~target:key candidate best < 0 then
            candidate
          else best)
        first rest

(* Bucket update on hearing from [contact]: refresh recency, or append when
   there is room; a full bucket first evicts dead contacts, then keeps its
   old (live) entries and drops the newcomer — Kademlia's stability rule. *)
let observe t n contact =
  if not (Key.equal n.id contact) then
    match bucket_index n.id contact with
    | None -> ()
    | Some i ->
        let without = List.filter (fun c -> not (Key.equal c contact)) n.buckets.(i) in
        if List.length without < List.length n.buckets.(i) then
          (* Known contact: move to most-recently-seen. *)
          n.buckets.(i) <- without @ [ contact ]
        else if List.length without < t.k then n.buckets.(i) <- without @ [ contact ]
        else begin
          let live = List.filter (is_alive t) without in
          if List.length live < t.k then n.buckets.(i) <- live @ [ contact ]
        end

let known_contacts n = Array.to_list n.buckets |> List.concat

let closest_contacts t n ~target ~count =
  known_contacts n
  |> List.filter (is_alive t)
  |> List.sort (Key.compare_xor ~target)
  |> List.filteri (fun i _ -> i < count)

exception Lookup_failure of string

(* Iterative lookup driven by [from]: repeatedly query the alpha closest
   un-queried candidates, learning closer contacts from each, until the k
   closest known are all queried.  Every query teaches both sides. *)
let iterative_lookup t ~from target =
  let querier = node_of t from in
  let closer a b = Key.compare_xor ~target a b < 0 in
  let sort_by_distance l = List.sort (Key.compare_xor ~target) l in
  let candidates = ref (sort_by_distance (from :: closest_contacts t querier ~target ~count:t.k)) in
  let queried = Hashtbl.create 32 in
  let contacted = ref 0 in
  let limit = (4 * live_count t) + 32 in
  let rec round () =
    let unqueried =
      List.filter (fun c -> (not (Hashtbl.mem queried c)) && is_alive t c) !candidates
      |> List.filteri (fun i _ -> i < t.alpha)
    in
    match unqueried with
    | [] -> ()
    | _ :: _ ->
        List.iter
          (fun c ->
            if !contacted > limit then raise (Lookup_failure "lookup did not converge");
            Hashtbl.replace queried c ();
            incr contacted;
            let peer = node_of t c in
            (* The peer learns about the querier; the querier learns the
               peer's closest contacts. *)
            observe t peer from;
            let learned = closest_contacts t peer ~target ~count:t.k in
            List.iter (observe t querier) (c :: learned);
            let merged =
              List.sort_uniq Key.compare (learned @ !candidates) |> sort_by_distance
            in
            candidates := merged)
          unqueried;
        (* Continue while one of the k closest known candidates is still
           un-queried. *)
        let k_closest =
          List.filter (is_alive t) !candidates |> List.filteri (fun i _ -> i < t.k)
        in
        if List.exists (fun c -> not (Hashtbl.mem queried c)) k_closest then round ()
  in
  round ();
  match List.filter (is_alive t) !candidates with
  | [] -> raise (Lookup_failure "no live candidates")
  | best :: rest ->
      let best = List.fold_left (fun b c -> if closer c b then c else b) best rest in
      (best, !contacted)

let lookup t ?from key =
  let from =
    match from with
    | Some f -> f
    | None -> ( match live_keys t with [] -> raise Not_found | k :: _ -> k)
  in
  if not (is_alive t from) then invalid_arg "Kademlia.lookup: start node is not alive";
  iterative_lookup t ~from key

(* ------------------------------------------------------------------ *)

let blank id = { id; alive = true; buckets = Array.make Key.bits [] }

let join_with_key t key =
  if is_alive t key then invalid_arg "Kademlia.join_with_key: identifier already joined";
  match live_keys t with
  | [] -> Hashtbl.replace t.nodes key (blank key)
  | bootstrap :: _ ->
      let n = blank key in
      Hashtbl.replace t.nodes key n;
      observe t n bootstrap;
      (* The self-lookup populates the joiner's buckets and announces it to
         the nodes along the path. *)
      ignore (iterative_lookup t ~from:key key)

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

let refresh t =
  List.iter (fun key -> ignore (iterative_lookup t ~from:key key)) (live_keys t)

let create_network ?seed ?k ?alpha ~node_count () =
  if node_count <= 0 then invalid_arg "Kademlia.create_network: need at least one node";
  let t = create ?seed ?k ?alpha () in
  for _ = 1 to node_count do
    ignore (join t)
  done;
  refresh t;
  t

let is_converged t =
  match live_keys t with
  | [] -> true
  | keys ->
      (* Sample: every node looks up a handful of random keys plus every
         node identifier; all must land on the oracle owner. *)
      let g = Stdx.Prng.create ~seed:3141L in
      let sample = List.init 10 (fun _ -> Key.random g) in
      List.for_all
        (fun from ->
          List.for_all
            (fun target ->
              match iterative_lookup t ~from target with
              | owner, _ -> Key.equal owner (responsible_oracle t target)
              | exception Lookup_failure _ -> false)
            sample)
        keys

let resolver t =
  let keys = Array.of_list (live_keys t) in
  let count = Array.length keys in
  if count = 0 then invalid_arg "Kademlia.resolver: empty network";
  (* Only member keys are looked up: their ring successor is
     themselves. *)
  let index_of = Resolver.ring_successor (Resolver.ring keys) in
  let xor_closest key r =
    Array.to_list keys
    |> List.sort (Key.compare_xor ~target:key)
    |> List.filteri (fun i _ -> i < r)
    |> List.map index_of
  in
  {
    Resolver.node_count = count;
    responsible = (fun key -> index_of (responsible_oracle t key));
    route_hops =
      (fun key ->
        let _owner, contacted = lookup t key in
        contacted);
    replicas_into =
      (fun key r buf ->
        Stdx.Int_buf.clear buf;
        List.iter (Stdx.Int_buf.push buf) (xor_closest key (Stdlib.min r count)));
  }
