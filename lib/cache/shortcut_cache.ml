(* Entries live in an LRU keyed by the (query, target) string pair, with a
   secondary index from query string to the set of its cached pairs so that
   [find] is proportional to the number of shortcuts for that query, not the
   cache size.  The LRU eviction hook keeps the secondary index in sync.

   Entry state is arena-backed: the LRU stores a dense arena id, the expiry
   stamp lives in a float column and the cached pair in a dummy-backed slot
   column.  The old per-entry cell record mixed an immutable pair with a
   mutable float, so every install boxed the float and allocated a record;
   the columns pay one [Some (target_key, pair)] box per install and
   nothing per probe.  The slot keeps the target key beside the pair so
   [find] hands callers the string they compare on without a re-render.

   Entries are soft state under churn: each carries an expiry stamped from
   the cache's virtual clock at install time, and expired entries are
   purged lazily on access.  With the default infinite TTL nothing ever
   expires and the cache behaves exactly as the static version did. *)

module String_pair = struct
  type t = string * string
end

(* Hit/miss/eviction counters, shared by every per-node cache built against
   the same registry (fetch-or-create returns one instrument per name). *)
type instruments = {
  hits : Obs.Metrics.Counter.t;
  misses : Obs.Metrics.Counter.t;
  evictions : Obs.Metrics.Counter.t;
  installs : Obs.Metrics.Counter.t;
  expirations : Obs.Metrics.Counter.t;
}

type 'q t = {
  lru : (String_pair.t, int) Lru.t;  (** values are arena ids *)
  arena : Stdx.Arena.t;
  pairs : (string * ('q * 'q)) option Stdx.Arena.Slots.t;
      (** [None] is the dummy: the query type is abstract here, so no
          ['q] value exists to stand in for vacant slots. *)
  expiry : Stdx.Arena.Float_col.col;
  by_query : (string, (string, unit) Hashtbl.t) Hashtbl.t;
  clock : unit -> float;
  ttl : float;
  instruments : instruments option;
}

let unindex by_query (query_key, target_key) =
  match Hashtbl.find_opt by_query query_key with
  | None -> ()
  | Some targets ->
      Hashtbl.remove targets target_key;
      if Hashtbl.length targets = 0 then Hashtbl.remove by_query query_key

let make_instruments registry =
  let counter name help = Obs.Metrics.counter registry ~help name in
  {
    hits = counter "p2pindex_cache_hits_total" "Shortcut lookups that found an entry";
    misses = counter "p2pindex_cache_misses_total" "Shortcut lookups that found nothing";
    evictions = counter "p2pindex_cache_evictions_total" "Entries evicted LRU-first";
    installs = counter "p2pindex_cache_installs_total" "Fresh shortcut pairs installed";
    expirations =
      counter "p2pindex_cache_expirations_total" "Entries dropped because their TTL ran out";
  }

let create ?metrics ?(clock = fun () -> 0.0) ?(ttl = infinity) ~capacity () =
  if not (ttl > 0.) then invalid_arg "Shortcut_cache.create: ttl must be > 0";
  let by_query = Hashtbl.create 16 in
  let instruments = Option.map make_instruments metrics in
  let arena =
    Stdx.Arena.create ~checked:false
      ~capacity:(match capacity with Some c -> Stdlib.max 1 c | None -> 16)
      ()
  in
  let pairs = Stdx.Arena.Slots.make arena ~dummy:None in
  let expiry = Stdx.Arena.Float_col.make arena ~default:infinity in
  let on_evict pair_key id =
    unindex by_query pair_key;
    Stdx.Arena.Slots.clear pairs id;
    Stdx.Arena.free arena id;
    match instruments with
    | Some ins -> Obs.Metrics.Counter.incr ins.evictions
    | None -> ()
  in
  {
    lru = Lru.create ?capacity ~on_evict ();
    arena;
    pairs;
    expiry;
    by_query;
    clock;
    ttl;
    instruments;
  }

let expired t id = Stdx.Arena.Float_col.get t.expiry id <= t.clock ()

(* Return an entry's arena slot to the free list. *)
let release t id =
  Stdx.Arena.Slots.clear t.pairs id;
  Stdx.Arena.free t.arena id

(* [Lru.remove] bypasses the eviction hook, so unindex by hand. *)
let purge t key id =
  ignore (Lru.remove t.lru key : bool);
  unindex t.by_query key;
  release t id;
  match t.instruments with
  | Some ins -> Obs.Metrics.Counter.incr ins.expirations
  | None -> ()

(* Fetch a pair if cached and fresh, purging it when its TTL ran out.
   The slot read already yields the option, so a fresh hit allocates
   nothing. *)
let live_find t key =
  match Lru.find t.lru key with
  | None -> None
  | Some id ->
      if expired t id then begin
        purge t key id;
        None
      end
      else Stdx.Arena.Slots.get t.pairs id

let count_outcome t ~hit =
  match t.instruments with
  | None -> ()
  | Some ins -> Obs.Metrics.Counter.incr (if hit then ins.hits else ins.misses)

let find t ~query_key =
  let found =
    match Hashtbl.find_opt t.by_query query_key with
    | None -> []
    | Some targets ->
        (* Collect first (purging while iterating would mutate [targets]
           underneath us), in sorted order so the result list — and any
           simulation decision made over it — is iteration-order free. *)
        let target_keys = Stdx.Det_tbl.sorted_keys ~compare:String.compare targets in
        List.filter_map
          (fun target_key -> live_find t (query_key, target_key))
          target_keys
  in
  count_outcome t ~hit:(found <> []);
  found

let find_target t ~query_key ~target_key =
  let found =
    match live_find t (query_key, target_key) with
    | Some (_target_key, (_query, target)) -> Some target
    | None -> None
  in
  count_outcome t ~hit:(found <> None);
  found

let add t ~query_key ~target_key pair =
  let key = (query_key, target_key) in
  (* An expired leftover is not a refresh: drop it so the install counts
     (and recurses through the eviction path) as fresh. *)
  (match Lru.peek t.lru key with
  | Some id when expired t id -> purge t key id
  | Some _ | None -> ());
  let expires_at = if t.ttl = infinity then infinity else t.clock () +. t.ttl in
  match Lru.peek t.lru key with
  | Some id ->
      (* Refresh: new pair and TTL in place, recency via [Lru.add]'s touch. *)
      Stdx.Arena.Slots.set t.pairs id (Some (target_key, pair));
      Stdx.Arena.Float_col.set t.expiry id expires_at;
      Lru.add t.lru key id;
      false
  | None ->
      let id = Stdx.Arena.alloc t.arena in
      Stdx.Arena.Slots.set t.pairs id (Some (target_key, pair));
      Stdx.Arena.Float_col.set t.expiry id expires_at;
      (* May evict the LRU tail, whose hook frees that entry's id. *)
      Lru.add t.lru key id;
      let targets =
        match Hashtbl.find_opt t.by_query query_key with
        | Some targets -> targets
        | None ->
            let targets = Hashtbl.create 4 in
            Hashtbl.replace t.by_query query_key targets;
            targets
      in
      Hashtbl.replace targets target_key ();
      (match t.instruments with
      | Some ins -> Obs.Metrics.Counter.incr ins.installs
      | None -> ());
      true

let clear t =
  Lru.fold t.lru ~init:() ~f:(fun () _key id -> release t id);
  Lru.clear t.lru;
  Hashtbl.reset t.by_query

let size t = Lru.length t.lru

let capacity t = Lru.capacity t.lru

let is_full t =
  match Lru.capacity t.lru with None -> false | Some c -> Lru.length t.lru >= c

let entries t =
  List.filter_map
    (fun (_key, id) ->
      if expired t id then None
      else Option.map snd (Stdx.Arena.Slots.get t.pairs id))
    (Lru.to_list t.lru)
