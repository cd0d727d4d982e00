module Key = Hashing.Key

(* Bucket [j] holds the contacts whose XOR with [id] tops out at bit [j]
   (0 least significant), i.e. that first differ from it at bit [159 - j]. *)
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

(* Bucket update on hearing from [contact]: move it to most-recently-seen,
   or append it when there is room (a bucket never holds more than [k], so
   a known contact always fits); a full bucket first evicts dead contacts,
   then keeps its old (live) entries and drops the newcomer — Kademlia's
   stability rule.  One pass decides, and the bucket is rebuilt only when
   it changes. *)
let rec last_is contact = function
  | [] -> false
  | [ c ] -> Key.equal c contact
  | _ :: rest -> last_is contact rest

(* The bucket's length, or -1 when it holds [contact]. *)
let rec length_without contact len = function
  | [] -> len
  | c :: rest -> if Key.equal c contact then -1 else length_without contact (len + 1) rest

let rec move_last contact = function
  | [] -> [ contact ]
  | c :: rest -> if Key.equal c contact then move_last contact rest else c :: move_last contact rest

let rec live_then t contact = function
  | [] -> [ contact ]
  | c :: rest -> if is_alive t c then c :: live_then t contact rest else live_then t contact rest

let observe t n contact =
  let shared = Key.common_prefix_bits n.id contact in
  if shared < Key.bits then begin
    let i = Key.bits - 1 - shared in
    let bucket = n.buckets.(i) in
    if not (last_is contact bucket) then begin
      if length_without contact 0 bucket < k then n.buckets.(i) <- move_last contact bucket
      else if not (List.for_all (is_alive t) bucket) then n.buckets.(i) <- live_then t contact bucket
    end
  end

(* Each bucket's XOR distances to [target] fill one aligned interval.  The
   intervals ascend along the bits where [n.id] and [target] differ, most
   significant first, then along the bits where they agree, least
   significant first: the buckets are visited in that order, each sorted,
   until [count] live contacts are found.  Empty ones, most, are skipped:
   [List.filter] and [List.sort] build closures even for []. *)
let closest_contacts t n ~target ~count =
  let alive = is_alive t and by_distance = Key.compare_xor ~target in
  let rec visit acc found s =
    if found >= count || s = 2 * Key.bits then List.filteri (fun i _ -> i < count) (List.rev acc)
    else
      let i = if s < Key.bits then s else (2 * Key.bits) - 1 - s in
      match n.buckets.(Key.bits - 1 - i) with
      | _ :: _ as bucket when Bool.equal (Key.bit n.id i <> Key.bit target i) (s < Key.bits) ->
          let live = List.filter alive bucket in
          visit (List.rev_append (List.sort by_distance live) acc) (found + List.length live) (s + 1)
      | _ -> visit acc found (s + 1)
  in
  visit [] 0 0

exception Lookup_failure of string

(* The first [count] live candidates not yet queried, nearest first. *)
let rec unqueried t queried count = function
  | c :: rest when count > 0 ->
      if is_alive t c && not (Hashtbl.mem queried c) then c :: unqueried t queried (count - 1) rest
      else unqueried t queried count rest
  | _ -> []

(* Is one of the first [count] live candidates not yet queried? *)
let rec pending t queried count = function
  | c :: rest when count > 0 ->
      if is_alive t c then (not (Hashtbl.mem queried c)) || pending t queried (count - 1) rest
      else pending t queried count rest
  | _ -> false

(* Two lists sorted by XOR distance, merged, each key once: the distance
   is zero only between equal keys. *)
let rec merge_closest by_distance xs ys =
  match (xs, ys) with
  | [], l | l, [] -> l
  | x :: xs', y :: ys' ->
      let c = by_distance x y in
      if c < 0 then x :: merge_closest by_distance xs' ys
      else if c > 0 then y :: merge_closest by_distance xs ys'
      else x :: merge_closest by_distance xs' ys'

(* Iterative lookup driven by [from]: repeatedly query the alpha closest
   un-queried candidates, learning closer contacts from each, until the k
   closest known are all queried.  Every query teaches both sides.  The
   learned contacts come sorted by distance, so each is merged into the
   sorted candidates. *)
let iterative_lookup t ~from target =
  let querier = node_of t from in
  let by_distance = Key.compare_xor ~target in
  let candidates = ref (List.sort by_distance (from :: closest_contacts t querier ~target ~count:k)) in
  let queried = Hashtbl.create 32 in
  let contacted = ref 0 in
  let limit = (4 * live_count t) + 32 in
  let rec round () =
    match unqueried t queried alpha !candidates with
    | [] -> ()
    | _ :: _ as batch ->
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
            candidates := merge_closest by_distance learned !candidates)
          batch;
        (* Continue while one of the k closest known candidates is still
           un-queried. *)
        if pending t queried k !candidates then round ()
  in
  round ();
  match List.find_opt (is_alive t) !candidates with
  | None -> raise (Lookup_failure "no live candidates")
  | Some best -> (best, !contacted)

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
