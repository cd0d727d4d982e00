(* Entries live in an LRU keyed by the (query, target) string pair, with a
   secondary index from query string to the set of its cached pairs so that
   [find] is proportional to the number of shortcuts for that query, not the
   cache size.  The LRU eviction hook keeps the secondary index in sync.

   The LRU's value is the entry itself: the cached pair, stored beside its
   target key so [find] hands callers the string they compare on without a
   re-render, and the expiry stamp.  A refresh rewrites both fields in
   place; a hit returns the stored tuple as it is.

   Entries are soft state under churn: each carries an expiry stamped from
   the cache's virtual clock at install time, and expired entries are
   purged lazily on access.  With the default infinite TTL nothing ever
   expires and the cache behaves exactly as the static version did. *)

module String_pair = struct
  type t = string * string
end

(* Hit/miss/eviction counters, fetched from the registry once and shared
   by every per-node cache of a run. *)
type instruments = {
  hits : Obs.Metrics.Counter.t;
  misses : Obs.Metrics.Counter.t;
  evictions : Obs.Metrics.Counter.t;
  installs : Obs.Metrics.Counter.t;
  expirations : Obs.Metrics.Counter.t;
}

type 'q entry = { mutable shortcut : string * ('q * 'q); mutable expires_at : float }

type 'q t = {
  lru : (String_pair.t, 'q entry) Lru.t;
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

let instruments registry =
  let counter name help = Obs.Metrics.counter registry ~help name in
  {
    hits = counter "p2pindex_cache_hits_total" "Shortcut lookups that found an entry";
    misses = counter "p2pindex_cache_misses_total" "Shortcut lookups that found nothing";
    evictions = counter "p2pindex_cache_evictions_total" "Entries evicted LRU-first";
    installs = counter "p2pindex_cache_installs_total" "Fresh shortcut pairs installed";
    expirations =
      counter "p2pindex_cache_expirations_total" "Entries dropped because their TTL ran out";
  }

let create ?instruments ?(clock = fun () -> 0.0) ?(ttl = infinity) ~capacity () =
  if not (ttl > 0.) then invalid_arg "Shortcut_cache.create: ttl must be > 0";
  let by_query = Hashtbl.create 16 in
  let on_evict pair_key _entry =
    unindex by_query pair_key;
    match instruments with
    | Some ins -> Obs.Metrics.Counter.incr ins.evictions
    | None -> ()
  in
  { lru = Lru.create ?capacity ~on_evict (); by_query; clock; ttl; instruments }

let expired t entry = entry.expires_at <= t.clock ()

(* [Lru.remove] bypasses the eviction hook, so unindex by hand. *)
let purge t key =
  ignore (Lru.remove t.lru key : bool);
  unindex t.by_query key;
  match t.instruments with
  | Some ins -> Obs.Metrics.Counter.incr ins.expirations
  | None -> ()

(* Fetch an entry if cached and fresh, purging it when its TTL ran out.
   A fresh hit hands back [Lru.find]'s own option. *)
let live_find t key =
  match Lru.find t.lru key with
  | None -> None
  | Some entry as found ->
      if expired t entry then begin
        purge t key;
        None
      end
      else found

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
        let rec collect = function
          | [] -> []
          | target_key :: rest -> (
              match live_find t (query_key, target_key) with
              | Some entry -> entry.shortcut :: collect rest
              | None -> collect rest)
        in
        collect target_keys
  in
  count_outcome t ~hit:(found <> []);
  found

let add t ~query_key ~target_key pair =
  let key = (query_key, target_key) in
  (* An expired leftover is not a refresh: drop it so the install counts
     (and recurses through the eviction path) as fresh. *)
  (match Lru.peek t.lru key with
  | Some entry when expired t entry -> purge t key
  | Some _ | None -> ());
  let expires_at = if t.ttl = infinity then infinity else t.clock () +. t.ttl in
  match Lru.peek t.lru key with
  | Some entry ->
      (* Refresh: new pair and TTL in place, recency via [Lru.add]'s touch. *)
      entry.shortcut <- (target_key, pair);
      entry.expires_at <- expires_at;
      Lru.add t.lru key entry;
      false
  | None ->
      (* May evict the LRU tail, whose hook unindexes that entry. *)
      Lru.add t.lru key { shortcut = (target_key, pair); expires_at };
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
  Lru.clear t.lru;
  Hashtbl.reset t.by_query

let size t = Lru.length t.lru

let entries t =
  List.filter_map
    (fun (_key, entry) -> if expired t entry then None else Some (snd entry.shortcut))
    (Lru.to_list t.lru)

(* Every node's cache, built at the node's first install.  Until then the
   node's slot holds the cache [create] returned first, shared by every
   such node and never written: a lookup there misses (and counts as a
   miss) exactly as on an empty cache of the node's own.  At
   million-node scale most nodes never receive an install. *)
type 'q per_node = { caches : 'q t array; owned : Stdx.Bitset.t; create : unit -> 'q t }

let per_node ~node_count create =
  {
    caches = Array.make node_count (create ());
    owned = Stdx.Bitset.create ~len:node_count ~default:false;
    create;
  }

let find_at p node ~query_key = find p.caches.(node) ~query_key

let add_at p node ~query_key ~target_key pair =
  if not (Stdx.Bitset.get p.owned node) then begin
    p.caches.(node) <- p.create ();
    Stdx.Bitset.set p.owned node true
  end;
  add p.caches.(node) ~query_key ~target_key pair

let clear_at p node = if Stdx.Bitset.get p.owned node then clear p.caches.(node)

let sizes p = Array.map size p.caches
