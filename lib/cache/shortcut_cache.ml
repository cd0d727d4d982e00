(* One table from query string to that query's group of entries, and one
   recency list through every entry of the cache.  The entries are the
   nodes of both lists at once:
     - a group is a doubly-linked chain in ascending target-key order, so
       [find] walks it in place, in the order its result is specified in;
     - the recency list runs from [head] (most recent) to [tail] (least
       recent), so a hit moves its node to the front and a full cache
       evicts the tail, each by relinking, with no allocation and no hash.
   Both lists end in [Nil].  A node with no newer neighbour is the head,
   so a touch needs no identity test.  Invariants: a node is in the table
   through its group exactly when it is in the recency list, [size]
   counts them, and a group in the table is never empty.

   A node stores its cached pair beside its target key, so [find] hands
   callers the string they compare on without a re-render, and its expiry
   stamp.  A refresh rewrites both in place; a hit returns the stored
   tuple as it is.

   Entries are soft state under churn: each carries an expiry stamped from
   the cache's virtual clock at install time, and expired entries are
   purged lazily on access.  With the default infinite TTL nothing ever
   expires and the cache behaves exactly as the static version did. *)

(* Hit/miss/eviction counters, fetched from the registry once and shared
   by every per-node cache of a run. *)
type instruments = {
  hits : Obs.Metrics.Counter.t;
  misses : Obs.Metrics.Counter.t;
  evictions : Obs.Metrics.Counter.t;
  installs : Obs.Metrics.Counter.t;
  expirations : Obs.Metrics.Counter.t;
}

type 'q node =
  | Nil
  | Node of {
      mutable shortcut : string * ('q * 'q);  (** Target key and pair. *)
      mutable expires_at : float;
      group : 'q group;
      mutable lower : 'q node;  (** Previous target of the group. *)
      mutable higher : 'q node;  (** Next target of the group. *)
      mutable newer : 'q node;  (** Towards [head]. *)
      mutable older : 'q node;  (** Towards [tail]. *)
    }

and 'q group = { query_key : string; mutable lowest : 'q node }

type 'q t = {
  groups : (string, 'q group) Hashtbl.t;
  mutable head : 'q node;
  mutable tail : 'q node;
  mutable size : int;
  capacity : int option;
  clock : unit -> float;
  ttl : float;
  instruments : instruments option;
}

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
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Shortcut_cache.create: capacity must be positive"
  | Some _ | None -> ());
  {
    groups = Hashtbl.create 16;
    head = Nil;
    tail = Nil;
    size = 0;
    capacity;
    clock;
    ttl;
    instruments;
  }

let count t pick =
  match t.instruments with Some ins -> Obs.Metrics.Counter.incr (pick ins) | None -> ()

let hits ins = ins.hits
let misses ins = ins.misses
let evictions ins = ins.evictions
let installs ins = ins.installs
let expirations ins = ins.expirations

let push_front t = function
  | Nil -> ()
  | Node r as n ->
      r.newer <- Nil;
      r.older <- t.head;
      (match t.head with Node h -> h.newer <- n | Nil -> t.tail <- n);
      t.head <- n

let unlink t = function
  | Nil -> ()
  | Node r ->
      (match r.newer with Node p -> p.older <- r.older | Nil -> t.head <- r.older);
      (match r.older with Node o -> o.newer <- r.newer | Nil -> t.tail <- r.newer);
      r.newer <- Nil;
      r.older <- Nil

let touch t = function
  | Nil -> ()
  | Node r as n -> (
      match r.newer with
      | Nil -> () (* already the head *)
      | Node _ ->
          unlink t n;
          push_front t n)

(* Drop a node from its group and from the recency list; a group left
   empty leaves the table. *)
let remove t = function
  | Nil -> ()
  | Node r as n ->
      unlink t n;
      let g = r.group in
      (match r.lower with Node l -> l.higher <- r.higher | Nil -> g.lowest <- r.higher);
      (match r.higher with Node h -> h.lower <- r.lower | Nil -> ());
      (match g.lowest with Nil -> Hashtbl.remove t.groups g.query_key | Node _ -> ());
      t.size <- t.size - 1

let expired t = function Node r -> r.expires_at <= t.clock () | Nil -> false

let purge t n =
  remove t n;
  count t expirations

(* A group's live shortcuts from [n] on, in ascending target order, each
   touched in that order; expired ones are purged.  A node's successor is
   read before the node can be purged. *)
let rec collect_group t = function
  | Nil -> []
  | Node r as n ->
      let higher = r.higher in
      if expired t n then begin
        purge t n;
        collect_group t higher
      end
      else begin
        touch t n;
        let shortcut = r.shortcut in
        shortcut :: collect_group t higher
      end

let find t ~query_key =
  match Hashtbl.find_opt t.groups query_key with
  | None ->
      count t misses;
      []
  | Some g ->
      let found = collect_group t g.lowest in
      count t (match found with [] -> misses | _ :: _ -> hits);
      found

let rec find_target target_key = function
  | Nil -> Nil
  | Node r as n ->
      let c = String.compare (fst r.shortcut) target_key in
      if c = 0 then n else if c > 0 then Nil else find_target target_key r.higher

(* The last node from [n] on whose target key is below [target_key], or
   [lower] when there is none. *)
let rec last_below target_key ~lower = function
  | Node r as n when String.compare (fst r.shortcut) target_key < 0 ->
      last_below target_key ~lower:n r.higher
  | Node _ | Nil -> lower

let add t ~query_key ~target_key pair =
  let group = Hashtbl.find_opt t.groups query_key in
  let cached = match group with Some g -> find_target target_key g.lowest | None -> Nil in
  (* An expired leftover is not a refresh: drop it so the install counts
     (and goes through the eviction path) as fresh. *)
  let cached =
    if expired t cached then begin
      purge t cached;
      Nil
    end
    else cached
  in
  let expires_at = if t.ttl = infinity then infinity else t.clock () +. t.ttl in
  match cached with
  | Node r ->
      (* Refresh: new pair and TTL in place, and the node to the front. *)
      r.shortcut <- (target_key, pair);
      r.expires_at <- expires_at;
      touch t cached;
      false
  | Nil ->
      (match t.capacity with
      | Some c when t.size >= c ->
          remove t t.tail;
          count t evictions
      | Some _ | None -> ());
      (* The purge or the eviction may have emptied the query's group and
         dropped it from the table. *)
      let g = match group with Some g -> g | None -> { query_key; lowest = Nil } in
      (match g.lowest with Nil -> Hashtbl.replace t.groups query_key g | Node _ -> ());
      let lower = last_below target_key ~lower:Nil g.lowest in
      let higher = match lower with Node l -> l.higher | Nil -> g.lowest in
      let n =
        Node
          { shortcut = (target_key, pair); expires_at; group = g; lower; higher;
            newer = Nil; older = Nil }
      in
      (match lower with Node l -> l.higher <- n | Nil -> g.lowest <- n);
      (match higher with Node h -> h.lower <- n | Nil -> ());
      push_front t n;
      t.size <- t.size + 1;
      count t installs;
      true

let clear t =
  Hashtbl.reset t.groups;
  t.head <- Nil;
  t.tail <- Nil;
  t.size <- 0

let size t = t.size

let entries t =
  let rec collect = function
    | Nil -> []
    | Node r as n -> if expired t n then collect r.older else snd r.shortcut :: collect r.older
  in
  collect t.head

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
