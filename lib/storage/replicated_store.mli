(** Replicated, soft-state DHT storage with quorum bookkeeping.

    Section IV-D: because index entries are regular DHT data, "they can
    benefit from the mechanisms implemented by the DHT substrate for
    increasing availability and scalability, such as data replication".
    This store writes every key to the [replication] nodes the resolver
    designates (the primary and its ring successors, Chord/DHash-style) and
    reads from live replicas, so index paths survive node failures without
    any change to the index layer.

    Under churn the store is {e soft state}: every entry carries an expiry
    (virtual time, from the [clock] passed at creation), publishers refresh
    entries by re-inserting them, an abrupt failure drops a node's contents
    ({!drop_state}), and a {!repair} pass re-homes entries onto live
    replicas that lost them.  With the defaults — a private all-alive
    liveness set, a constant clock and infinite TTLs — the store behaves
    exactly like the static {!Store} with [replication = 1].

    Every key additionally carries, per replica, a dotted {!Version}
    vector and a tombstone set.  Writes reach the {e live} replicas only
    (the coordinator — the first live replica — bumps its own dot, so a
    replica that slept through the write is left causally behind);
    removes leave tombstoned states behind so neither {!repair} nor the
    {!Anti_entropy} pass can resurrect a deletion from a stale copy.
    With every replica alive the version machinery is invisible: entry
    lists, traffic and the final table shapes are exactly the
    pre-quorum ones.

    The store is key-major: one table from key to the key's slot, which
    holds the key's replica set and each replica's state.  A key is
    registered while it has a slot.  {b Invariant:} a slot's replica set
    is resolved once, when the key is first written, and is then read
    off the slot.  That is exact because a store's resolver is fixed for
    the store's life: the Chord, Pastry, Kademlia and static resolvers
    close over an immutable snapshot of the ring, and CAN's closes over
    its live partition tree, which no store outlives a membership change
    of.  A new overlay state needs a new store.  Dropping a node's state
    ({!drop_state}) is O(1): each node has an epoch, and a state written
    under an older epoch reads as absent. *)

type 'v t

type 'v entry
(** One stored entry: a value and the length of its rendering.  The
    length is fixed by the writer ({!make_entry}) when the entry is
    first written, and every copy — read repair, {!repair},
    anti-entropy sync — carries it along, so callers price traffic from
    it instead of re-rendering the value.

    {b Store contract.}  Equal values render equally, so writers must
    give equal values equal lengths — under structural equality and
    under the [equal] passed to {!insert_entries} alike.  Every
    membership test (reconciliation, read repair, the writes' refresh
    scan) skips candidates whose length differs without
    comparing values.  Values are compared structurally, and a value is
    taken to equal itself. *)

val entry_value : 'v entry -> 'v
val entry_len : 'v entry -> int

(* lint: allow X1 — test view: an entry's soft-state deadline *)
val entry_expires_at : 'v entry -> float
(** The virtual time the entry expires at ([infinity] for hard state). *)

val create :
  resolver:Dht.Resolver.t ->
  replication:int ->
  ?on_write_acks:(acks:int -> unit) ->
  ?liveness:Dht.Liveness.t ->
  ?clock:(unit -> float) ->
  unit ->
  'v t
(** [liveness] (default: a private set with every node alive) is shared by
    reference: the churn driver fails/revives nodes there and every store
    built over it sees the change.  [clock] (default: constantly [0.0])
    supplies the virtual time used to judge entry expiry.

    [on_write_acks] fires once per coordinated write with the number of
    live replicas that took the write, so the caller can count writes
    acknowledged by fewer than its write quorum.  The quorums themselves,
    and the read-side quorum walk, live in the index layer (which owns
    the RPC billing).
    @raise Invalid_argument when [replication < 1] or [liveness] covers
    a different node count than the resolver. *)

val replication : 'v t -> int
val liveness : 'v t -> Dht.Liveness.t

val node_of : 'v t -> Hashing.Key.t -> int
(** The primary node responsible for a key. *)

val replica_nodes : 'v t -> Hashing.Key.t -> int list
(** The key's full replica set (primary first), dead or alive. *)

val registered : 'v t -> Hashing.Key.t -> bool
(** Is the key registered — written and not collected by {!remove}? *)

val replica_buf : 'v t -> Hashing.Key.t -> Stdx.Int_buf.t
(** The same replica set in the store's scratch buffer — the
    allocation-free variant the lookup hot path walks: read off the
    key's slot when the key is registered, resolved otherwise.  The
    buffer is shared per store: it stays valid until the next
    [replica_buf] or write on this store, so walk it before reading
    another key's set. *)

val make_entry : expires_at:float -> len:int -> 'v -> 'v entry
(** A new entry, not yet stored: [len] is the length of the value's
    rendering ({!entry_len}), [expires_at] its expiry ([infinity] for
    hard state). *)

val reserve : 'v t -> int -> unit
(** [reserve t n]: room for [n] more keys, made at once, so that
    registering them grows nothing. *)

val insert_entries :
  equal:('v -> 'v -> bool) option ->
  'v t ->
  key:Hashing.Key.t ->
  writes:int ->
  floor:float ->
  count:int ->
  lens:int ->
  'v entry list ->
  'v entry list * Stdx.Int_buf.t
(** The store's one write: [insert_entries ~equal t ~key ~writes ~floor
    ~count ~lens entries] leaves on [key] exactly what [writes]
    one-entry writes leave when their distinct values, in first-write
    order, are [entries] reversed (so [entries] is newest first) and
    each value's last write carried its entry's expiry.  Without [equal]
    no value is refreshed, so every write installs its own entry and
    [writes] is the length of [entries].

    The caller states what it knows of [entries], so the store does not
    walk them: [count] is their number, [lens] the sum of their
    {!entry_len}s and [floor] a lower bound on their expiries (a batch
    stamped alike passes its one expiry).

    A write reaches the {e live} replicas only.  On each, an entry
    [equal] to a written value takes that value's expiry; otherwise the
    replica gains the entry, newest first.  A replica whose state is
    empty — no entries, no tombstones — takes [entries] as they are:
    the list itself on the first live replica, copies elsewhere, as
    entries carry mutable expiries.  Every live replica drops the
    tombstones a written value matches (under [equal], structurally
    without it) and takes the version the coordinator (the first live
    replica) reaches by bumping its own dot [writes] times, so the
    write dominates every state it lands on.  [on_write_acks] fires
    [writes] times with the live replica count.

    Returns the entries no live replica held — the ones the write
    installed anew, newest first; all of them when every live state
    was empty — and the key's replica set, left in the scratch buffer
    ({!replica_buf}), so the caller bills the live replicas without
    resolving the key again.  The write registers the key.
    @raise Invalid_argument when [entries] is empty. *)

val insert : ?expires_at:float -> 'v t -> key:Hashing.Key.t -> len:int -> 'v -> unit
(** One write of one more entry under [key] (duplicates allowed; most
    recent first) on every live replica: {!insert_entries} without
    [equal].  [expires_at] defaults to [infinity] (hard state). *)

val insert_unique :
  ?expires_at:float ->
  equal:('v -> 'v -> bool) ->
  'v t ->
  key:Hashing.Key.t ->
  len:int ->
  'v ->
  bool
(** One write of one entry under [equal] ({!insert_entries}): live
    replicas holding an [equal] entry refresh its expiry, the others
    gain the entry.  Returns whether the entry was genuinely new — held
    by no live replica. *)

val lookup : 'v t -> Hashing.Key.t -> 'v list
(** Unexpired entries from the acting primary (the first live replica);
    [] when the key is unknown there or every replica is down. *)

val entries_at : 'v t -> node:int -> Hashing.Key.t -> 'v entry list
(** One replica's unexpired entries; [] when that node is dead or does
    not hold the key.  Allocates nothing unless an entry has expired. *)

val version_at : 'v t -> node:int -> Hashing.Key.t -> Version.t
(** The replica's version vector for the key ({!Version.zero} when it
    holds no state), dead or alive — an oracle view, not a message. *)

val live_merged_version : 'v t -> Hashing.Key.t -> Version.t
(** Least upper bound of the key's versions across every {e live}
    replica — what a read consulting all of them would see.  An oracle
    for staleness accounting; performs no messaging. *)

val quorum_read :
  'v t ->
  key:Hashing.Key.t ->
  nodes:int list ->
  'v list * Version.t * (int * 'v entry list) list
(** Reconcile the listed replicas' states of [key] (dead ones are
    skipped): returns the merged unexpired values, the merged version,
    and — having overwritten every diverged consulted replica with the
    merged state (read repair) — the per-node list of entries each
    repaired replica gained, for traffic billing.  Dominance decides the
    merge; equal-version divergence and concurrent histories take the
    entry union fenced by the merged tombstone set.  Replicas that agree
    (the same values in the same order, no tombstones) reconcile in one
    pass over their entries.  [nodes] are distinct replicas of the key;
    a node outside the key's replica set holds no state and is
    skipped. *)

val sync_key : 'v t -> key:Hashing.Key.t -> nodes:int list -> (int * 'v entry list) list
(** {!quorum_read} for its repair side effect only: converge the listed
    replicas on the key's merged state and report what each gained. *)

val mem : 'v t -> Hashing.Key.t -> bool
(** Is some live replica holding an unexpired entry for the key?  The
    availability measure of the Section IV-D ablation. *)

val remove : 'v t -> key:Hashing.Key.t -> ('v -> bool) -> int
(** Remove matching entries from every {e live} replica (a write, like
    {!insert}: dead replicas keep their copies and are fenced off by the
    tombstones left behind); returns the maximum number removed on any
    single live replica (the logical count), 0 when every replica is
    down.  When afterwards no replica — dead ones included — holds an
    entry, the key and its tombstones are collected outright.  A key
    that is not registered only has the write acknowledged. *)

val remove_key : 'v t -> Hashing.Key.t -> int
(** Remove the key everywhere; returns the logical entry count removed. *)

val fail_node : 'v t -> int -> unit
(** Mark a node as failed: its replicas stop answering but its contents
    are kept, as a paused process would (the static ablation's model). *)

(* lint: allow X1 — test view: brings a replica back in the quorum model checks *)
val revive_node : 'v t -> int -> unit

val alive : 'v t -> int -> bool

val drop_state : 'v t -> int -> unit
(** Forget everything a node stored — an abrupt failure losing RAM state.
    Combine with {!fail_node} (or the shared liveness) for crash-stop
    churn; the node rejoins empty and reacquires entries through
    republication and {!repair}. *)

val repair : ?on_restore:(node:int -> 'v entry -> unit) -> 'v t -> int
(** Full-state re-homing: for every key, copy the entries of the first
    live replica that still holds it onto live replicas that lost them (a
    rejoined node, a node that missed the insert while down) — unless
    the target's version dominates the source's, i.e. the "lost" state
    is really a tombstone for a remove the source slept through.  Keys
    with no live holder are left for republication.  [on_restore] fires
    once per copied entry (for traffic billing); returns the number of
    entries re-homed.  For digest-based divergence repair see
    {!Anti_entropy}. *)

val key_count : 'v t -> int
(** Distinct keys registered and not removed (counted once, not per
    replica). *)

val total_replica_entries : 'v t -> int
(** Unexpired entries across all replicas — the storage cost of
    replication. *)

val keys_per_node : 'v t -> int array
(** Distinct keys with unexpired entries physically held by each node. *)

val entries_per_node : 'v t -> int array
(** Unexpired entries physically held by each node. *)

val entry_totals : 'v t -> ('v entry -> int) -> int * int
(** Logical entries — the acting primary's unexpired entries of every
    key, keys with no live holder counting nothing — and [f] summed over
    them, in one walk of the replicas' states without sorting them. *)

val len_totals : 'v t -> int * int
(** {!entry_totals} with {!entry_len} summed, read off each state's kept
    totals ({!state_count}, {!state_lens}): no entry list is walked
    unless an entry may have expired. *)

val fold :
  'v t -> init:'acc -> f:('acc -> Hashing.Key.t -> 'v list -> 'acc) -> 'acc
(** Fold over every key with the acting primary's unexpired entries
    (iteration order unspecified); keys with no live holder are
    skipped. *)

val fold_range :
  'v t ->
  node:int ->
  lo:Hashing.Key.t ->
  hi:Hashing.Key.t ->
  init:'acc ->
  f:('acc -> Hashing.Key.t -> 'v entry list -> 'acc) ->
  'acc
(** One replica's range scan: fold over the keys in [\[lo, hi\]] that
    [node] holds unexpired entries for, in {!Hashing.Key.compare} order,
    whichever replica sets they belong to.  A dead node holds nothing.
    The routed prefix index answers a covering arc with it. *)

(** {1 Maintenance surface}

    What the {!Anti_entropy} pass reads of the per-replica states; not a
    general-purpose API. *)

(* lint: allow X1 — test view: every stored key, in order *)
val sorted_keys : 'v t -> Hashing.Key.t list
(** Every registered key, in {!Hashing.Key.compare} order. *)

type 'v slot
(** A registered key with its replica set and each replica's state. *)

val slots : 'v t -> 'v slot array
(** Every registered key's slot, in {!Hashing.Key.compare} order.  The
    array is the store's own, shared until a key is registered or
    collected: read it, do not write it. *)

val slot_keys : 'v t -> Hashing.Key.t array
(** The keys of {!slots}, index for index; shared the same way. *)

val slot_width : 'v slot -> int
(** The size of the key's replica set. *)

val slot_node : 'v slot -> int -> int
(** [slot_node slot i]: the key's [i]th replica, in placement order. *)

type 'v state
(** One replica's state of one key. *)

val slot_state : 'v t -> 'v slot -> int -> 'v state option
(** The [i]th replica's state of the slot's key, dead or alive, or
    [None] when it holds none.  A write, sync or repair of that key may
    replace it: look it up again afterwards. *)

val state_entries : 'v state -> 'v entry list
(** The entries the state physically holds, expired ones included until
    a probe prunes them: the volume a full-state exchange would ship. *)

val state_count : 'v state -> int
(** The length of {!state_entries}, kept beside the list. *)

val state_lens : 'v state -> int
(** The sum of {!state_entries}' {!entry_len}s, kept beside the list. *)

val live_state : 'v t -> node:int -> Hashing.Key.t -> 'v state
(** One replica's state of the key with its expired entries pruned: what
    {!entries_at} reads, with its kept totals.  A dead node, or one that
    holds no state, reads as a state with no entries.  The index layer
    drives its bounded retry loop with this, pricing each reply from the
    kept totals.  Allocates nothing unless an entry has expired. *)

val same_states : 'v t -> 'v state option -> 'v state option -> bool
(** {!same_state} on two states already looked up. *)

(* lint: allow X1 — oracle: replica agreement, which the anti-entropy checks assert *)
val same_state : 'v t -> a:int -> b:int -> Hashing.Key.t -> bool
(** Do nodes [a] and [b] hold identical states for the key — the same
    entries with the same expiries in the same order, the same
    tombstones and the same version?  Expired entries are pruned on both
    sides first.  A node holding no state matches only another such
    node: an empty state left by a remove still differs from none.
    This is the comparison anti-entropy digests stand for. *)

type 'v held_state = { held : 'v entry list; tombstones : 'v list; version : Version.t }

(* lint: allow X1 — test view: one replica's state for a key *)
val held_state : 'v t -> node:int -> Hashing.Key.t -> 'v held_state option
(** A node's raw state for the key — entries as held (expired ones
    included until a probe prunes them), tombstones and version — or
    [None] when it holds no state.  An oracle view for audits and
    tests. *)

(* lint: allow X1 — test view: one replica's entries for a key *)
val held_entries : 'v t -> node:int -> Hashing.Key.t -> 'v entry list
(** The raw entries a node physically holds for the key (expiry and
    liveness not consulted) — the volume a full-state exchange would
    ship. *)

val iter_held : 'v t -> (node:int -> Hashing.Key.t -> 'v entry -> unit) -> unit
(** Every entry physically held anywhere, dead nodes and expired entries
    included, in node then key order — for audits of the stored
    state. *)
