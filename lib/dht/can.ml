module Key = Hashing.Key

(* The coordinate space is the d-torus [0,1)^d, kept as CAN's binary
   partition tree: an internal cell halves its box at one dimension's
   midpoint, a leaf is a zone and its owner.  A node owns several leaves
   only after taking over a zone that was not its sibling (the CAN
   paper's departure handling). *)

type zone = { lo : float array; hi : float array }

type cell = {
  zone : zone;
  mutable owner : int; (* a leaf's owner; stale once the cell is split *)
  mutable split : split option;
}

(* [lower] covers [zone.lo.(dim), mid) of the parent, [upper] the rest. *)
and split = { dim : int; mid : float; lower : cell; upper : cell }

type t = {
  dims : int;
  root : cell;
  mutable owned : cell list array; (* id -> its leaves; [] once departed *)
  mutable next_id : int;
  mutable live : int;
  scratch : Stdx.Int_buf.t; (* neighbour ids, reused by every walk *)
  prng : Stdx.Prng.t;
}

let create ?(seed = 1L) ?(dimensions = 2) () =
  if dimensions < 1 then invalid_arg "Can.create: need at least one dimension";
  let whole = { lo = Array.make dimensions 0.0; hi = Array.make dimensions 1.0 } in
  {
    dims = dimensions;
    root = { zone = whole; owner = -1; split = None };
    owned = Array.make 16 [];
    next_id = 0;
    live = 0;
    scratch = Stdx.Int_buf.create ();
    prng = Stdx.Prng.create ~seed;
  }

let node_count t = t.live

let is_alive t id = id >= 0 && id < t.next_id && t.owned.(id) <> []

let live_ids t = List.filter (is_alive t) (List.init t.next_id Fun.id)

(* ------------------------------------------------------------------ *)
(* Geometry. *)

let zone_contains t z p =
  let rec check d = d >= t.dims || (p.(d) >= z.lo.(d) && p.(d) < z.hi.(d) && check (d + 1)) in
  check 0

(* In dimension [d], do the intervals of zones [a] and [b] overlap, or
   abut (across the torus's wrap too)? *)
let overlap a b d = a.lo.(d) < b.hi.(d) && b.lo.(d) < a.hi.(d)

let abut a b d =
  a.hi.(d) = b.lo.(d) || b.hi.(d) = a.lo.(d)
  || (a.hi.(d) = 1.0 && b.lo.(d) = 0.0)
  || (b.hi.(d) = 1.0 && a.lo.(d) = 0.0)

(* Two zones are neighbours when they abut in exactly one dimension and
   overlap in all others (the CAN adjacency rule, on the torus). *)
let zones_adjacent t a b =
  let abut_dims = ref 0 in
  let overlap_dims = ref 0 in
  for d = 0 to t.dims - 1 do
    if overlap a b d then incr overlap_dims else if abut a b d then incr abut_dims
  done;
  !abut_dims = 1 && !overlap_dims = t.dims - 1

(* A cell can hold a leaf adjacent to [b] only if it overlaps or abuts
   [b] in every dimension from [d] on. *)
let rec zones_touch t a b d =
  d >= t.dims || ((overlap a b d || abut a b d) && zones_touch t a b (d + 1))

let[@inline] torus_axis_distance a b =
  let d = Float.abs (a -. b) in
  Float.min d (1.0 -. d)

(* Distance from a point to a zone, per dimension 0 when inside the
   interval, otherwise the torus distance to the nearest edge. *)
let[@inline] zone_distance t z p =
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

let node_distance t id p =
  List.fold_left (fun best c -> Float.min best (zone_distance t c.zone p)) infinity t.owned.(id)

let zone_volume t z =
  let v = ref 1.0 in
  for d = 0 to t.dims - 1 do
    v := !v *. (z.hi.(d) -. z.lo.(d))
  done;
  !v

let node_volume t id = List.fold_left (fun acc c -> acc +. zone_volume t c.zone) 0.0 t.owned.(id)

(* ------------------------------------------------------------------ *)
(* Key-to-point mapping: carve the 160-bit digest into d chunks of 8 hex
   digits each (wrapping), scaled into [0,1). *)

let point_of_key t key =
  Array.init t.dims (fun d ->
      let acc = ref 0.0 in
      for i = 0 to 7 do
        acc := (!acc *. 16.0) +. float_of_int (Key.nibble key (((d * 8) + i) mod 40))
      done;
      !acc /. (16.0 ** 8.0))

(* ------------------------------------------------------------------ *)
(* Tree walks. *)

let rec leaf_at c p =
  match c.split with
  | None -> c
  | Some s -> leaf_at (if p.(s.dim) < s.mid then s.lower else s.upper) p

let owner_of_point t p =
  if t.live = 0 then raise Not_found;
  (leaf_at t.root p).owner

(* Push into [t.scratch] the owner of every leaf under [c] adjacent to
   [z], [self] excepted: a node's neighbours, unordered, one that
   touches several of its zones more than once. *)
let rec push_adjacent t self z c =
  if zones_touch t c.zone z 0 then
    match c.split with
    | Some s ->
        push_adjacent t self z s.lower;
        push_adjacent t self z s.upper
    | None ->
        if c.owner <> self && zones_adjacent t c.zone z then Stdx.Int_buf.push t.scratch c.owner

(* The largest id in [t.scratch] below [before]; -1 when none is. *)
let rec largest_below t before i best =
  if i = Stdx.Int_buf.length t.scratch then best
  else
    let x = Stdx.Int_buf.unsafe_get t.scratch i in
    largest_below t before (i + 1) (if x < before && x > best then x else best)

let rec ascending t before acc =
  let m = largest_below t before 0 (-1) in
  if m < 0 then acc else ascending t m (m :: acc)

let neighbours t id =
  if not (is_alive t id) then raise Not_found;
  Stdx.Int_buf.clear t.scratch;
  List.iter (fun c -> push_adjacent t id c.zone t.root) t.owned.(id);
  ascending t max_int []

(* ------------------------------------------------------------------ *)
(* Membership. *)

(* Halve the leaf containing a random point along its widest dimension
   (the lower index on ties); the half containing the point goes to
   [joiner]. *)
let split_leaf t joiner =
  let p = Array.init t.dims (fun _ -> Stdx.Prng.unit_float t.prng) in
  let leaf = leaf_at t.root p in
  let z = leaf.zone in
  let widest = ref 0 in
  for d = 1 to t.dims - 1 do
    if z.hi.(d) -. z.lo.(d) > z.hi.(!widest) -. z.lo.(!widest) then widest := d
  done;
  let dim = !widest in
  let mid = (z.lo.(dim) +. z.hi.(dim)) /. 2.0 in
  let half lo_at hi_at =
    let lo = Array.copy z.lo and hi = Array.copy z.hi in
    lo.(dim) <- lo_at;
    hi.(dim) <- hi_at;
    { zone = { lo; hi }; owner = leaf.owner; split = None }
  in
  let lower = half z.lo.(dim) mid and upper = half mid z.hi.(dim) in
  leaf.split <- Some { dim; mid; lower; upper };
  let give, keep = if p.(dim) < mid then (lower, upper) else (upper, lower) in
  give.owner <- joiner;
  t.owned.(joiner) <- [ give ];
  (* The split leaf is the only one of the owner's cells now split. *)
  t.owned.(keep.owner) <- keep :: List.filter (fun c -> Option.is_none c.split) t.owned.(keep.owner)

let join t =
  let id = t.next_id in
  if id = Array.length t.owned then t.owned <- Array.append t.owned (Array.make id []);
  t.next_id <- id + 1;
  if t.live > 0 then split_leaf t id
  else begin
    t.root.owner <- id;
    t.owned.(id) <- [ t.root ]
  end;
  t.live <- t.live + 1;
  id

(* Collapse, bottom up, every split whose two halves are leaves of one
   owner. *)
let rec collapse c =
  Option.iter (fun s -> collapse s.lower; collapse s.upper) c.split;
  match c.split with
  | Some { lower = { split = None; owner = a; _ }; upper = { split = None; owner = b; _ }; _ }
    when a = b ->
      c.owner <- a;
      c.split <- None
  | Some _ | None -> ()

let rec leaves_of c id acc =
  match c.split with
  | Some s -> leaves_of s.lower id (leaves_of s.upper id acc)
  | None -> if c.owner = id then c :: acc else acc

let leave t id =
  if not (is_alive t id) then raise Not_found;
  if t.live = 1 then invalid_arg "Can.leave: cannot remove the last node";
  (* Takeover: the neighbour with the smallest total volume, ties to the
     lower id, inherits the zones. *)
  let heir =
    match neighbours t id with
    | [] -> invalid_arg "Can.leave: node has no neighbour"
    | m :: rest ->
        List.fold_left (fun b m -> if node_volume t m < node_volume t b then m else b) m rest
  in
  List.iter (fun c -> c.owner <- heir) t.owned.(id);
  t.owned.(id) <- [];
  collapse t.root;
  t.owned.(heir) <- leaves_of t.root heir [];
  t.live <- t.live - 1

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
   owner.  Ties go to the higher id. *)

exception Routing_failure of string

let rec route t target p limit current hops =
  if hops > limit then raise (Routing_failure "CAN route did not converge");
  if current = target then (current, hops + 1)
  else
    match neighbours t current with
    | [] -> raise (Routing_failure "CAN node has no neighbours")
    | m :: rest ->
        let nearer b m = if node_distance t m p <= node_distance t b p then m else b in
        route t target p limit (List.fold_left nearer m rest) (hops + 1)

(* The newest live node: the highest live id. *)
let rec newest_live t id =
  if id < 0 then raise Not_found else if is_alive t id then id else newest_live t (id - 1)

let lookup t ?from key =
  let from = match from with Some id -> id | None -> newest_live t (t.next_id - 1) in
  if not (is_alive t from) then invalid_arg "Can.lookup: start node is not alive";
  let p = point_of_key t key in
  route t (owner_of_point t p) p ((4 * t.live) + 16) from 0

(* ------------------------------------------------------------------ *)

let is_well_formed t =
  let live = live_ids t in
  let volume = List.fold_left (fun acc id -> acc +. node_volume t id) 0.0 live in
  (* Sampled points each lie in exactly one zone, the one the tree
     descends to. *)
  let g = Stdx.Prng.create ~seed:424242L in
  let sample_ok _ =
    let p = Array.init t.dims (fun _ -> Stdx.Prng.unit_float g) in
    let holder id c = if zone_contains t c.zone p then Some id else None in
    List.concat_map (fun id -> List.filter_map (holder id) t.owned.(id)) live
    = [ owner_of_point t p ]
  in
  (* The walk finds what a pairwise scan of the zones finds, and the
     relation is symmetric. *)
  let adjacent a b =
    let touching za = List.exists (fun zb -> zones_adjacent t za.zone zb.zone) t.owned.(b) in
    a <> b && List.exists touching t.owned.(a)
  in
  let neighbours_ok id =
    let found = neighbours t id in
    found = List.filter (adjacent id) live
    && List.for_all (fun m -> List.mem id (neighbours t m)) found
  in
  Float.abs (volume -. 1.0) < 1e-9
  && List.for_all sample_ok (List.init 100 Fun.id)
  && List.for_all neighbours_ok live

(* Node ids may be sparse after departures: map them onto dense indexes. *)
let rec index_of_id ids id lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if ids.(mid) >= id then index_of_id ids id lo mid else index_of_id ids id (mid + 1) hi

let resolver t =
  let ids = Array.of_list (live_ids t) in
  let count = Array.length ids in
  if count = 0 then invalid_arg "Can.resolver: empty overlay";
  let index id = index_of_id ids id 0 count in
  {
    Resolver.node_count = count;
    responsible = (fun key -> index (owner_of_point t (point_of_key t key)));
    route_hops = (fun key -> snd (lookup t key));
    replicas_into =
      (fun key r buf ->
        (* The owner, then its zone neighbours by id order. *)
        Stdx.Int_buf.clear buf;
        if r > 0 then begin
          let owner = owner_of_point t (point_of_key t key) in
          Stdx.Int_buf.push buf (index owner);
          let push i m = if i < r - 1 then Stdx.Int_buf.push buf (index m) in
          List.iteri push (neighbours t owner)
        end);
  }
