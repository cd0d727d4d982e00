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
    @raise Invalid_argument when [ttl <= 0]. *)

val find : 'q t -> query_key:string -> (string * ('q * 'q)) list
(** All unexpired shortcuts cached under this query, in target-key order:
    each target key (the string the pair was installed under) with its
    pair of query and target descriptor.  Hits refresh recency; expired
    entries found along the way are purged. *)

val find_target : 'q t -> query_key:string -> target_key:string -> 'q option
(** The cached target for an exact (query, target) pair, refreshing
    recency — the simulation's "is the relevant data already in the cache"
    test.  An expired entry is purged and reported as a miss. *)

val add : 'q t -> query_key:string -> target_key:string -> 'q * 'q -> bool
(** Install a shortcut with a fresh TTL; returns false when the pair was
    already cached and unexpired (its recency and TTL are refreshed). *)

val clear : 'q t -> unit
(** Drop everything — the node crashed and its cache is gone. *)

val size : 'q t -> int
(** Number of cached entries (pairs), counting entries that have expired
    but not yet been purged. *)

val capacity : 'q t -> int option

val is_full : 'q t -> bool
(** True when a bounded cache is at capacity. *)

val entries : 'q t -> ('q * 'q) list
(** All unexpired cached pairs, most recent first. *)
