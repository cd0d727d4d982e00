(** The churn driver: turns a seeded event queue plus session-lifetime
    distributions into a concrete schedule of node failures, rejoins and
    periodic soft-state maintenance.

    Each node alternates between sessions (alive) and downtimes (dead).
    Both are memoryless, the shape early measurement studies of deployed
    peer-to-peer networks fit: exponential, sessions with mean
    [session_mean] and downtimes with mean 30 s, each drawn by inversion
    from the driver's PRNG.  Failures are
    abrupt (crash-stop — the owner of the node's state decides what is
    lost via the [on_fail] callback).  Republish and repair fire globally
    on fixed periods.  Time is purely virtual and only moves forward;
    everything is deterministic from the seed:
    two drivers with the same seed and config emit identical event
    sequences. *)

type event =
  | Fail of int  (** The node's session ended; it crashes. *)
  | Join of int  (** The node's downtime ended; it rejoins, state lost. *)
  | Republish  (** Publishers refresh their soft state. *)
  | Repair  (** Anti-entropy pass over replica sets. *)

type config = {
  session_mean : float;  (** Mean alive time. *)
  republish_period : float;  (** [infinity]: never republish. *)
  repair_period : float;  (** [infinity]: never repair. *)
}

type t

val create :
  ?metrics:Obs.Metrics.t ->
  seed:int64 ->
  liveness:Dht.Liveness.t ->
  config ->
  t
(** Draw every node's first session end and schedule it, along with the
    first republish/repair ticks.  The [liveness] set is shared: the
    driver flips nodes there and every store built over it sees the
    change.  With [metrics], maintains the
    [p2pindex_churn_live_nodes] gauge and
    [p2pindex_churn_{failures,joins,republishes,repairs}_total]
    counters.
    @raise Invalid_argument when [session_mean] or a period is not
    positive. *)

val run_until :
  t ->
  until:float ->
  on_fail:(time:float -> int -> unit) ->
  on_join:(time:float -> int -> unit) ->
  on_republish:(time:float -> unit) ->
  on_repair:(time:float -> unit) ->
  unit
(** Fire every event scheduled at or before [until] in order, advancing
    the virtual clock to [until].  [on_fail node] runs after the node is
    marked dead (drop its state there); [on_join node] after it is marked
    alive again.  A [Fail] schedules the matching [Join] at
    [now + downtime]; a [Join] schedules the next [Fail] at
    [now + session]; periodic events reschedule themselves.
    @raise Invalid_argument when a positive delay (a period or a drawn
    lifetime) is too small for the clock to advance by it. *)
