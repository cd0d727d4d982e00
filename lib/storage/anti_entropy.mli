(** Digest-based anti-entropy over a {!Replicated_store}.

    The {!Replicated_store.repair} walk only re-homes keys a replica
    lost {e entirely}; a replica that slept through a refresh or a
    remove keeps serving its stale copy.  This pass reconciles such
    divergence the way DHT deployments do, without shipping full state:
    the directory's keys are grouped into ranges by replica set, the
    first live replica of each range (the coordinator) exchanges a
    single SHA-1 digest of its range with every other live replica, and
    only when the digests disagree are the diverged keys compared and
    merged ({!Replicated_store.sync_key} — dominance decides, tombstones
    fence removals, so a deletion can never be resurrected).

    A range's digests agree exactly when its two replicas hold identical
    states for every key, so the pass decides the match with
    {!Replicated_store.same_state} per key — in ascending key order (via
    [Stdx.Det_tbl]), so the whole pass is deterministic — and bills each
    exchange the two digest messages it stands for.  Nothing is rendered
    or hashed. *)

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
  entry_bytes:('v Replicated_store.entry -> int) ->
  ?on_exchange:(peer:int -> bytes:int -> unit) ->
  ?on_ship:(node:int -> bytes:int -> unit) ->
  unit ->
  stats
(** One full pass: every key range, every live replica pair.
    [entry_bytes] prices one entry for the byte accounting (from its
    cached {!Replicated_store.entry_len}, so nothing re-renders).
    [on_exchange] fires per digest push-pull (for billing the digest
    messages to the peer), [on_ship] per replica that gained entries
    (for billing the shipped bytes).  Ranges with fewer than two live
    replicas are skipped — a lone survivor has nobody to reconcile
    with. *)
