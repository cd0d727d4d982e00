(** Per-node shortcut tables: the adaptive distributed cache of Section IV-C.

    Each node allocates index entries for caching.  A shortcut is a direct
    mapping from a (generic) query to the descriptor of a target file; a
    user following the same path later can jump straight to the file.
    Entries are keyed by the {e pair} (query, target) — one cached key per
    pair, which is what the paper counts in Fig. 14 — and evicted LRU-first
    when the node's capacity is bounded.

    Under churn, shortcuts are soft state like any other index entry: each
    carries a TTL measured on the cache's virtual [clock], expired entries
    vanish lazily on access, and {!clear} models a node losing its cache in
    a crash.  The defaults (constant clock, infinite TTL) reproduce the
    static behavior exactly.

    The structure is polymorphic in the query type; canonical strings
    identify entries, mirroring how the DHT would store them. *)

type 'q t

type instruments
(** The [p2pindex_cache_{hits,misses,installs,evictions,expirations}_total]
    counters. *)

val instruments : Obs.Metrics.t -> instruments
(** Fetch (or create) the cache counters in a registry.  Fetch once and
    pass the result to every per-node cache: the counters are then
    network-wide totals. *)

val create :
  ?instruments:instruments ->
  ?clock:(unit -> float) ->
  ?ttl:float ->
  capacity:int option ->
  unit ->
  'q t
(** One node's cache.  [capacity = None] is unbounded.  [clock] (default:
    constantly [0.0]) supplies the virtual time entries are judged against;
    [ttl] (default [infinity]) is stamped on every install and refresh.
    With [instruments], lookups, installs, evictions and TTL expirations
    bump its counters.
    @raise Invalid_argument when [ttl <= 0] or [capacity <= 0]. *)

val find : 'q t -> query_key:string -> (string * ('q * 'q)) list
(** All unexpired shortcuts cached under this query, in target-key order:
    each target key (the string the pair was installed under) with its
    pair of query and target descriptor.  Hits refresh recency; expired
    entries found along the way are purged. *)

val add : 'q t -> query_key:string -> target_key:string -> 'q * 'q -> bool
(** Install a shortcut with a fresh TTL; returns false when the pair was
    already cached and unexpired (its recency and TTL are refreshed). *)

(* lint: allow X1 — test view: one node's crash, as clear_at applies it *)
val clear : 'q t -> unit
(** Drop everything — the node crashed and its cache is gone. *)

(* lint: allow X1 — test view: one node's entry count, as sizes reads it *)
val size : 'q t -> int
(** Number of cached entries (pairs), counting entries that have expired
    but not yet been purged. *)

(* lint: allow X1 — test view: one node's live pairs in recency order, compared with the model *)
val entries : 'q t -> ('q * 'q) list
(** All unexpired cached pairs, most recent first. *)

(** {1 One cache per node} *)

type 'q per_node
(** A cache for every node of a network, each built at the node's first
    install.  Until then a node shares one cache that nothing writes, so
    it behaves as a node with an empty cache of its own, and costs one
    array slot. *)

val per_node : node_count:int -> (unit -> 'q t) -> 'q per_node
(** [per_node ~node_count create] builds node caches with [create]: one
    call now, for the shared stand-in, and one at each node's first
    install. *)

val find_at : 'q per_node -> int -> query_key:string -> (string * ('q * 'q)) list
(** {!find} on the node's cache. *)

val add_at :
  'q per_node -> int -> query_key:string -> target_key:string -> 'q * 'q -> bool
(** {!add} on the node's cache, building the cache first if the node has
    none yet. *)

val clear_at : 'q per_node -> int -> unit
(** {!clear} on the node's cache; a no-op for a node that has none. *)

val sizes : 'q per_node -> int array
(** {!size} of every node's cache, by node. *)
