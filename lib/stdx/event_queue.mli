(** A priority queue of timed events — the one heap every discrete-event
    part of the simulator orders time with: churn failures and rejoins,
    concurrent session quanta and delayed one-way deliveries.

    Events are ordered by nondecreasing virtual time; events scheduled for
    the {e same} time fire in insertion (FIFO) order, which makes every
    simulation that uses the queue deterministic: the schedule is a pure
    function of the push sequence. *)

type 'a t

val create : dummy:'a -> unit -> 'a t
(** An empty queue.  [dummy] is an inert value of the event type used to
    fill unoccupied slots — it is never returned, only stored, so any
    cheap constant of ['a] works.  Supplying it lets the queue keep
    events in a flat array without per-push [option] boxing. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> time:float -> 'a -> unit
(** Schedule an event.  [time] may be in the past relative to previously
    popped events — the queue itself imposes no clock; engines layering a
    clock on top enforce monotonicity there.
    @raise Invalid_argument when [time] is NaN. *)

val peek_time : 'a t -> float option
(** Earliest scheduled time, without popping. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest event; among equal times, the one
    pushed first.  [None] when empty. *)

val pop_until : 'a t -> until:float -> (float * 'a) option
(** {!pop}, but only when the earliest event's time is [<= until]. *)

val drain_until : 'a t -> until:float -> f:(time:float -> 'a -> unit) -> int
(** Pop every event with time [<= until] in queue order, calling [f] on
    each without allocating the per-event pair {!pop} returns; yields
    the number of events drained.  Events [f] pushes at or before
    [until] are drained in the same call — a quantum of the engine's
    tick loop. *)
