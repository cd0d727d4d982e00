module Key = Hashing.Key

(* Bucket index: position of the highest differing bit (0..159), i.e. the
   distance scale.  None when the keys are equal. *)
let bucket_index a b =
  let shared = Key.common_prefix_bits a b in
  if shared = Key.bits then None else Some (Key.bits - 1 - shared)

type node = {
  id : Key.t;
  buckets : Key.t list array; (* per distance scale; most recently seen last *)
}

type t = node Members.t

(* Bucket capacity and lookup parallelism. *)
let k = 8
let alpha = 3

let create ?(seed = 1L) () = Members.create ~seed ()

let node_of = Members.find
let is_alive = Members.is_alive
let live_keys = Members.live_keys
let live_count = Members.live_count

let responsible_oracle t key = Members.owner t Resolver.ring_xor_closest key

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
        else if List.length without < k then n.buckets.(i) <- without @ [ contact ]
        else begin
          let live = List.filter (is_alive t) without in
          if List.length live < k then n.buckets.(i) <- live @ [ contact ]
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
  let candidates = ref (sort_by_distance (from :: closest_contacts t querier ~target ~count:k)) in
  let queried = Hashtbl.create 32 in
  let contacted = ref 0 in
  let limit = (4 * live_count t) + 32 in
  let rec round () =
    let unqueried =
      List.filter (fun c -> (not (Hashtbl.mem queried c)) && is_alive t c) !candidates
      |> List.filteri (fun i _ -> i < alpha)
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
            let learned = closest_contacts t peer ~target ~count:k in
            List.iter (observe t querier) (c :: learned);
            let merged =
              List.sort_uniq Key.compare (learned @ !candidates) |> sort_by_distance
            in
            candidates := merged)
          unqueried;
        (* Continue while one of the k closest known candidates is still
           un-queried. *)
        let k_closest =
          List.filter (is_alive t) !candidates |> List.filteri (fun i _ -> i < k)
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
  let from = match from with Some f -> f | None -> Members.first_live t in
  if not (is_alive t from) then invalid_arg "Kademlia.lookup: start node is not alive";
  iterative_lookup t ~from key

(* ------------------------------------------------------------------ *)

let blank id = { id; buckets = Array.make Key.bits [] }

let join_with_key t key =
  if is_alive t key then invalid_arg "Kademlia.join_with_key: identifier already joined";
  if live_count t = 0 then Members.add t key (blank key)
  else begin
    let bootstrap = Members.first_live t in
    let n = blank key in
    Members.add t key n;
    observe t n bootstrap;
    (* The self-lookup populates the joiner's buckets and announces it to
       the nodes along the path. *)
    ignore (iterative_lookup t ~from:key key)
  end

let leave = Members.fail

let refresh t =
  List.iter (fun key -> ignore (iterative_lookup t ~from:key key)) (live_keys t)

let create_network ?seed ~node_count () =
  if node_count <= 0 then invalid_arg "Kademlia.create_network: need at least one node";
  let t = create ?seed () in
  for _ = 1 to node_count do
    join_with_key t (Members.fresh_key t)
  done;
  refresh t;
  t

let is_converged t =
  match live_keys t with
  | [] -> true
  | keys ->
      (* Sample: every node looks up the same 10 random keys; all must
         land on the oracle owner. *)
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
  Resolver.of_ring (Members.ring t) ~owner:Resolver.ring_xor_closest
    ~replicas_into:Resolver.ring_xor_replicas_into
    ~route_hops:(fun key -> snd (lookup t key))
    ()
