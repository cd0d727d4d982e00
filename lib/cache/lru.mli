(** Generic LRU map: hash table plus intrusive doubly-linked recency list.

    All operations are O(1).  With [capacity = None] the map never evicts
    (the paper's unbounded single/multi-cache policies); with
    [capacity = Some k] inserting into a full map evicts the least recently
    used entry first (the paper's LRU-10/20/30 policies). *)

type ('k, 'v) t

val create : ?capacity:int -> ?on_evict:('k -> 'v -> unit) -> unit -> ('k, 'v) t
(** [create ()] is unbounded.  [on_evict] fires for every capacity eviction
    (not for {!remove} or overwrites).
    @raise Invalid_argument when [capacity <= 0]. *)

val capacity : ('k, 'v) t -> int option
val length : ('k, 'v) t -> int
val is_empty : ('k, 'v) t -> bool

val find : ('k, 'v) t -> 'k -> 'v option
(** Lookup; a hit refreshes the entry's recency. *)

val peek : ('k, 'v) t -> 'k -> 'v option
(** Lookup without touching recency. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Membership without touching recency. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or overwrite; either way the entry becomes most recent.  May
    evict the least recently used entry. *)

val remove : ('k, 'v) t -> 'k -> bool
(** Returns whether the key was present. *)

val to_list : ('k, 'v) t -> ('k * 'v) list
(** Entries from most to least recently used. *)

val clear : ('k, 'v) t -> unit
