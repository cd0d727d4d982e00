module Key = Hashing.Key

(* The coordinate space is the d-torus [0,1)^d.  Every node owns one or
   more rectangular zones (several only after takeovers that could not be
   merged back into a rectangle, as in the CAN paper's departure handling).
   Zones always tile the space exactly: joins split the containing zone at
   its midpoint along its largest dimension, departures hand zones to a
   neighbour and re-coalesce rectangles when possible. *)

type zone = { lo : float array; hi : float array }

type node = { id : int; mutable alive : bool; mutable zones : zone list }

type t = {
  dims : int;
  mutable nodes : node list; (* all ever created; dead ones keep no zones *)
  mutable next_id : int;
  prng : Stdx.Prng.t;
}

let create ?(seed = 1L) ?(dimensions = 2) () =
  if dimensions < 1 then invalid_arg "Can.create: need at least one dimension";
  { dims = dimensions; nodes = []; next_id = 0; prng = Stdx.Prng.create ~seed }

let dimensions t = t.dims

let live_nodes t = List.filter (fun n -> n.alive) t.nodes

let node_count t = List.length (live_nodes t)

let node_of t id =
  match List.find_opt (fun n -> n.id = id) t.nodes with
  | Some n -> n
  | None -> raise Not_found

(* ------------------------------------------------------------------ *)
(* Geometry. *)

let zone_volume t z =
  let v = ref 1.0 in
  for d = 0 to t.dims - 1 do
    v := !v *. (z.hi.(d) -. z.lo.(d))
  done;
  !v

let zone_contains t z p =
  let rec check d = d >= t.dims || (p.(d) >= z.lo.(d) && p.(d) < z.hi.(d) && check (d + 1)) in
  check 0

let intervals_overlap lo1 hi1 lo2 hi2 = Float.max lo1 lo2 < Float.min hi1 hi2

let intervals_abut lo1 hi1 lo2 hi2 =
  hi1 = lo2 || hi2 = lo1 || (hi1 = 1.0 && lo2 = 0.0) || (hi2 = 1.0 && lo1 = 0.0)

(* Two zones are neighbours when they abut in exactly one dimension and
   overlap in all others (the CAN adjacency rule, on the torus). *)
let zones_adjacent t a b =
  let abut_dims = ref 0 in
  let overlap_dims = ref 0 in
  for d = 0 to t.dims - 1 do
    if intervals_overlap a.lo.(d) a.hi.(d) b.lo.(d) b.hi.(d) then incr overlap_dims
    else if intervals_abut a.lo.(d) a.hi.(d) b.lo.(d) b.hi.(d) then incr abut_dims
  done;
  !abut_dims = 1 && !overlap_dims = t.dims - 1

let nodes_adjacent t a b =
  a.id <> b.id
  && List.exists (fun za -> List.exists (fun zb -> zones_adjacent t za zb) b.zones) a.zones

let neighbours t n = List.filter (fun m -> nodes_adjacent t n m) (live_nodes t)

let torus_axis_distance a b =
  let d = Float.abs (a -. b) in
  Float.min d (1.0 -. d)

(* Distance from a point to a zone, per dimension 0 when inside the
   interval, otherwise the torus distance to the nearest edge. *)
let zone_distance t z p =
  let acc = ref 0.0 in
  for d = 0 to t.dims - 1 do
    let axis =
      if p.(d) >= z.lo.(d) && p.(d) < z.hi.(d) then 0.0
      else
        Float.min (torus_axis_distance p.(d) z.lo.(d)) (torus_axis_distance p.(d) z.hi.(d))
    in
    acc := !acc +. (axis *. axis)
  done;
  sqrt !acc

let node_distance t n p =
  List.fold_left (fun best z -> Float.min best (zone_distance t z p)) infinity n.zones

(* ------------------------------------------------------------------ *)
(* Key-to-point mapping: carve the 160-bit digest into d chunks of 8 hex
   digits each (wrapping), scaled into [0,1). *)

let point_of_key t key =
  Array.init t.dims (fun d ->
      let acc = ref 0.0 in
      for i = 0 to 7 do
        acc := (!acc *. 16.0) +. float_of_int (Key.nibble key ((d * 8) + i mod 40))
      done;
      !acc /. (16.0 ** 8.0))

let owner_of_point t p =
  match
    List.find_opt (fun n -> List.exists (fun z -> zone_contains t z p) n.zones) (live_nodes t)
  with
  | Some n -> n.id
  | None -> raise Not_found

(* ------------------------------------------------------------------ *)
(* Membership. *)

let whole_space t =
  { lo = Array.make t.dims 0.0; hi = Array.make t.dims 1.0 }

let split_zone t z p =
  (* Split along the widest dimension; the half containing [p] goes to the
     joiner. *)
  let widest = ref 0 in
  for d = 1 to t.dims - 1 do
    if z.hi.(d) -. z.lo.(d) > z.hi.(!widest) -. z.lo.(!widest) then widest := d
  done;
  let d = !widest in
  let mid = (z.lo.(d) +. z.hi.(d)) /. 2.0 in
  let lower = { lo = Array.copy z.lo; hi = Array.copy z.hi } in
  let upper = { lo = Array.copy z.lo; hi = Array.copy z.hi } in
  lower.hi.(d) <- mid;
  upper.lo.(d) <- mid;
  if p.(d) < mid then (upper, lower) else (lower, upper)

let random_point t = Array.init t.dims (fun _ -> Stdx.Prng.unit_float t.prng)

let join t =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  let joiner = { id; alive = true; zones = [] } in
  (match live_nodes t with
  | [] -> joiner.zones <- [ whole_space t ]
  | _ :: _ ->
      let p = random_point t in
      let owner = node_of t (owner_of_point t p) in
      let containing = List.find (fun z -> zone_contains t z p) owner.zones in
      let keep, give = split_zone t containing p in
      owner.zones <-
        (* lint: allow phys-equal — removes the exact zone record just split *)
        keep :: List.filter (fun z -> not (z == containing)) owner.zones;
      joiner.zones <- [ give ]);
  t.nodes <- joiner :: t.nodes;
  id

(* Merge two zones into a rectangle when they abut in one dimension with
   identical cross-sections. *)
let try_merge t a b =
  let differing = ref [] in
  for d = 0 to t.dims - 1 do
    if not (a.lo.(d) = b.lo.(d) && a.hi.(d) = b.hi.(d)) then differing := d :: !differing
  done;
  match !differing with
  | [ d ] when a.hi.(d) = b.lo.(d) ->
      let merged = { lo = Array.copy a.lo; hi = Array.copy a.hi } in
      merged.hi.(d) <- b.hi.(d);
      Some merged
  | [ d ] when b.hi.(d) = a.lo.(d) ->
      let merged = { lo = Array.copy b.lo; hi = Array.copy b.hi } in
      merged.hi.(d) <- a.hi.(d);
      Some merged
  | _ -> None

let rec coalesce t zones =
  let rec find_pair before = function
    | [] -> None
    | z :: rest -> (
        match
          List.fold_left
            (fun acc other ->
              match acc with
              | Some _ -> acc
              | None -> (
                  match try_merge t z other with
                  | Some merged -> Some (merged, other)
                  | None -> None))
            None rest
        with
        | Some (merged, other) ->
            (* lint: allow phys-equal — drops the exact zone record consumed by the merge *)
            Some (merged :: List.rev_append before (List.filter (fun x -> not (x == other)) rest))
        | None -> find_pair (z :: before) rest)
  in
  match find_pair [] zones with Some zones' -> coalesce t zones' | None -> zones

let leave t id =
  let n = node_of t id in
  if not n.alive then raise Not_found;
  (match live_nodes t with
  | [] | [ _ ] -> invalid_arg "Can.leave: cannot remove the last node"
  | _ :: _ :: _ -> ());
  (* Takeover: the neighbour with the smallest total volume inherits the
     zones, then coalesces what it can. *)
  let candidates = neighbours t n in
  let heir =
    List.fold_left
      (fun best m ->
        match best with
        | None -> Some m
        | Some b ->
            let vm = List.fold_left (fun acc z -> acc +. zone_volume t z) 0.0 m.zones in
            let vb = List.fold_left (fun acc z -> acc +. zone_volume t z) 0.0 b.zones in
            if vm < vb || (vm = vb && m.id < b.id) then Some m else best)
      None candidates
  in
  match heir with
  | None -> invalid_arg "Can.leave: node has no neighbour"
  | Some heir ->
      heir.zones <- coalesce t (n.zones @ heir.zones);
      n.zones <- [];
      n.alive <- false

let create_network ?seed ?dimensions ~node_count () =
  if node_count <= 0 then invalid_arg "Can.create_network: need at least one node";
  let t = create ?seed ?dimensions () in
  for _ = 1 to node_count do
    ignore (join t)
  done;
  t

(* ------------------------------------------------------------------ *)
(* Routing: greedy forwarding towards the target point through neighbours;
   the zone-to-point distance strictly decreases, so it terminates at the
   owner. *)

exception Routing_failure of string

let route t ~from p =
  let limit = (4 * node_count t) + 16 in
  let rec step current hops =
    if hops > limit then raise (Routing_failure "CAN route did not converge");
    let n = node_of t current in
    if List.exists (fun z -> zone_contains t z p) n.zones then (current, hops + 1)
    else
      let next =
        List.fold_left
          (fun best m ->
            match best with
            | None -> Some m
            | Some b -> if node_distance t m p < node_distance t b p then Some m else best)
          None (neighbours t n)
      in
      match next with
      | Some m -> step m.id (hops + 1)
      | None -> raise (Routing_failure "CAN node has no neighbours")
  in
  step from 0

let lookup t ?from key =
  let from =
    match from with
    | Some id -> id
    | None -> (
        match live_nodes t with [] -> raise Not_found | n :: _ -> n.id)
  in
  let n = node_of t from in
  if not n.alive then invalid_arg "Can.lookup: start node is not alive";
  route t ~from (point_of_key t key)

(* ------------------------------------------------------------------ *)

let is_well_formed t =
  let live = live_nodes t in
  let total_volume =
    List.fold_left
      (fun acc n -> List.fold_left (fun acc z -> acc +. zone_volume t z) acc n.zones)
      0.0 live
  in
  let volume_ok = Float.abs (total_volume -. 1.0) < 1e-9 in
  (* Sampled points each have exactly one owner. *)
  let g = Stdx.Prng.create ~seed:424242L in
  let sampling_ok =
    List.for_all
      (fun _ ->
        let p = Array.init t.dims (fun _ -> Stdx.Prng.unit_float g) in
        let owners =
          List.filter
            (fun n -> List.exists (fun z -> zone_contains t z p) n.zones)
            live
        in
        List.length owners = 1)
      (List.init 100 Fun.id)
  in
  volume_ok && sampling_ok

let resolver t =
  let live = live_nodes t in
  let count = List.length live in
  if count = 0 then invalid_arg "Can.resolver: empty overlay";
  (* Node ids may be sparse after departures: map them onto dense indexes. *)
  let ids = Array.of_list (List.sort Int.compare (List.map (fun n -> n.id) live)) in
  let index_of_id id =
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if ids.(mid) >= id then search lo mid else search (mid + 1) hi
    in
    search 0 count
  in
  {
    Resolver.node_count = count;
    responsible = (fun key -> index_of_id (owner_of_point t (point_of_key t key)));
    route_hops =
      (fun key ->
        let _owner, hops = lookup t key in
        hops);
    replicas_into =
      (fun key r buf ->
        (* The owner plus its zone neighbours, by id order. *)
        let owner = node_of t (owner_of_point t (point_of_key t key)) in
        let candidates =
          owner.id
          :: List.map (fun m -> m.id) (List.sort (fun a b -> Int.compare a.id b.id) (neighbours t owner))
        in
        Stdx.Int_buf.clear buf;
        let rec take k = function
          | [] -> ()
          | x :: rest ->
              if k > 0 then begin
                Stdx.Int_buf.push buf (index_of_id x);
                take (k - 1) rest
              end
        in
        take (Stdlib.min r count) candidates);
  }
