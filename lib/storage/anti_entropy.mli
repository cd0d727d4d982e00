(** Digest-based anti-entropy over a {!Replicated_store}.

    The {!Replicated_store.repair} walk only re-homes keys a replica
    lost {e entirely}; a replica that slept through a refresh or a
    remove keeps serving its stale copy.  This pass reconciles such
    divergence the way DHT deployments do, without shipping full state:
    the registered keys are grouped into ranges by replica set, the
    first live replica of each range (the coordinator) exchanges a
    single SHA-1 digest of its range with every other live replica, and
    only when the digests disagree are the diverged keys compared and
    merged ({!Replicated_store.sync_key} — dominance decides, tombstones
    fence removals, so a deletion can never be resurrected).

    A range's digests agree exactly when its two replicas hold identical
    states for every key, so the pass decides the match with
    {!Replicated_store.same_states} per key — ranges in replica-set
    order, keys in ascending key order inside each, so the whole pass is
    deterministic — and bills each exchange the two digest messages it
    stands for.  Nothing is rendered or hashed.  The range order is the
    store's own ({!Replicated_store.ranges}), derived again only after a
    key is registered or collected, so a round sorts nothing.  The pass
    walks each range key by key, looking each live replica's state up
    once per key; a sync touches only its own key, so this leaves the
    same states and counts as exchanging peer by peer.  States that
    share a version or a list compare by identity, and the full-state
    counterfactual is priced from each state's kept totals, so a quiet
    pass walks no entry list it does not compare and allocates nothing
    per key. *)

type stats = {
  exchanges : int;  (** Digest push-pulls performed (one per live pair). *)
  digest_matches : int;  (** Exchanges where the digests agreed. *)
  digest_bytes : int;  (** Bytes spent on digest messages. *)
  keys_shipped : int;  (** Diverged keys that were reconciled. *)
  entries_shipped : int;  (** Entries moved to converge them. *)
  shipped_bytes : int;  (** Bytes of those entries. *)
  full_state_bytes : int;
      (** What a digestless full-state push-pull would have moved on the
          same divergence — both sides' entire ranges, every exchange.
          The digest scheme's win is
          [digest_bytes + shipped_bytes < full_state_bytes]. *)
}

val add : stats -> stats -> stats
(** Componentwise sum (aggregate over several passes or stores). *)

val run :
  'v Replicated_store.t ->
  entry_overhead:int ->
  ?on_exchange:(peer:int -> bytes:int -> unit) ->
  ?on_ship:(node:int -> bytes:int -> unit) ->
  unit ->
  stats
(** One full pass: every key range, every live replica pair.  An entry
    is priced [entry_overhead] plus its {!Replicated_store.entry_len},
    so nothing re-renders: shipped entries one by one, and the
    full-state counterfactual as [entry_overhead] times a state's
    {!Replicated_store.state_count} plus its
    {!Replicated_store.state_lens}.
    [on_exchange] fires per digest push-pull (for billing the digest
    messages to the peer), [on_ship] per replica that gained entries
    (for billing the shipped bytes).  Ranges with fewer than two live
    replicas are skipped — a lone survivor has nobody to reconcile
    with. *)
