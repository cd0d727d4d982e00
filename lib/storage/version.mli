(** Dotted version vectors ordering replica states of one key.

    A vector maps each writing actor (a node id) to the number of write
    events it coordinated.  Vectors are kept in a sorted normal form, so
    structural equality coincides with {!equal} and every operation is
    deterministic.  {!merge} is the least upper bound (pointwise max):
    commutative, associative and idempotent, which is what lets
    anti-entropy reconcile replicas in any exchange order. *)

type t

val zero : t
(** The empty history: no writes observed. *)

(* lint: allow X1 — oracle: the invariant every merged vector keeps *)
val well_formed : t -> bool
(** Internal invariant — sorted strictly by actor, all counters
    positive.  Exposed for the property tests. *)

(* lint: allow X1 — test view: one actor's dot *)
val counter : t -> actor:int -> int
(** The actor's component, [0] when absent. *)

val bump : t -> actor:int -> t
(** Record one more write event coordinated by [actor].
    @raise Invalid_argument on a negative actor id. *)

val bump_by : t -> actor:int -> int -> t
(** [bump_by t ~actor n] records [n] more write events coordinated by
    [actor]: {!bump} applied [n] times ([t] itself when [n <= 0]).
    @raise Invalid_argument on a negative actor id. *)

val merge : t -> t -> t
(** Least upper bound of the two histories. *)

type relation = Eq | Dominates | Dominated | Concurrent

val compare : t -> t -> relation
(** Causal order: [Dominates] when the first vector has seen every event
    of the second plus at least one more, [Concurrent] when each side
    has events the other lacks. *)

val equal : t -> t -> bool

val dots : t -> int
(** Number of actors with a nonzero component (the vector's wire
    size driver). *)

(* lint: allow X1 — oracle: the causal order that merge is checked against *)
val dominates_or_eq : t -> t -> bool
(** [compare a b] is [Eq] or [Dominates] — "a is at least as new". *)

(* lint: allow X1 — test view: a vector in readable form, for equality checks *)
val to_string : t -> string
(** Canonical rendering ["{actor:count,...}"]; equal vectors render
    identically, which the anti-entropy digests rely on. *)
