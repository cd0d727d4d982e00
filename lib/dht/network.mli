(** Simulated message-passing layer with traffic accounting.

    The evaluation (Section V) measures traffic in bytes per query, split
    into normal lookup traffic and cache-maintenance traffic (Fig. 12), and
    the per-node query load (Fig. 15).  This module is that measuring
    instrument: every message the index layer sends is recorded here, with
    its size, category and destination node. *)

type category =
  | Request  (** A query sent towards the node responsible for a key. *)
  | Response  (** The result set returned to the requester. *)
  | Cache_update  (** Traffic spent installing shortcut cache entries. *)
  | Maintenance  (** Substrate upkeep (index insertion, stabilization). *)

val category_label : category -> string

type t

val create : ?metrics:Obs.Metrics.t -> node_count:int -> unit -> t
(** A network of [node_count] peers, all counters at zero.  The traffic
    counts live in the registry: every [send]/[touch] bumps the
    [p2pindex_network_{messages,bytes,touches}_total] counters (bytes and
    messages labelled by category) of [metrics], or of a private registry
    when none is given, and {!messages}/{!bytes} read them back. *)

val node_count : t -> int

val send : t -> dst:int -> bytes:int -> category:category -> unit
(** Record a message of [bytes] delivered to node [dst].
    @raise Invalid_argument if [dst] is not a valid node index or
    [bytes] is negative (a negative count would silently corrupt the
    traffic totals). *)

val touch : t -> node:int -> unit
(** Record that the current query accessed node [node] (one count per
    interaction) — the Fig. 15 hot-spot measure. *)

val messages : t -> category -> int
val bytes : t -> category -> int

val total_messages : t -> int
val total_bytes : t -> int

val touches : t -> int array
(** Per-node access counts (a fresh copy). *)

val reset : t -> unit
(** Zero every counter, the registry's included (e.g. after warming up
    the indexes). *)
