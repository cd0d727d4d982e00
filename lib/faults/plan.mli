(** Deterministic fault plans for the simulated message layer.

    A plan decides, message by message, whether a send is lost, how long
    it takes to arrive, and whether the network delivers a second copy.
    Every decision is a pure function of the plan's seed and the
    message's sequence number: two plans built with the same seed issue
    the identical verdict stream, so any simulation driven through a
    plan is bit-reproducible — the property the fault-injection tests
    pin down.

    The zero plan (no loss, no delay, no duplication) is recognisable in
    O(1) via {!is_zero}; callers use it to take a fault-free fast path
    that is byte-identical to the pre-fault code. *)

type latency =
  | No_latency  (** Instant delivery — the static model. *)
  | Constant of float
  | Uniform of { lo : float; hi : float }
  | Exponential of { mean : float }

type spec = {
  loss_rate : float;  (** Probability a message disappears in flight. *)
  duplicate_rate : float;  (** Probability a second copy is delivered. *)
  latency : latency;
}

val spec :
  ?loss_rate:float -> ?duplicate_rate:float -> ?latency:latency -> unit -> spec
(** Build a spec; omitted parts default to no loss, no duplication and
    no latency.
    @raise Invalid_argument when a rate is outside [0, 1] or a latency
    parameter is negative, NaN or an empty interval. *)

type t

val create :
  ?seed:int64 ->
  ?node_overrides:(int * spec) list ->
  ?link_overrides:((int * int) * spec) list ->
  spec ->
  t
(** [create base] is a plan applying [base] to every message.
    [node_overrides] replaces the spec for messages to or from a given
    node (destination wins over source); [link_overrides] replaces it
    for a directed (src, dst) pair and beats both node entries.  The
    client side of an RPC is node [-1].
    @raise Invalid_argument on an invalid spec or a negative override
    node index. *)

val zero : t
(** The shared zero plan: {!is_zero} holds and no verdict ever faults. *)

val is_zero : t -> bool
(** True when no message can ever be lost, delayed or duplicated —
    the condition under which fault-aware layers take their fast path. *)

type verdict = { lost : bool; duplicated : bool; latency : float }

val message : t -> src:int -> dst:int -> verdict
(** The verdict for the next message from [src] to [dst].  Consumes one
    sequence number; the verdict depends only on (seed, sequence number,
    resolved spec), never on earlier verdicts. *)

val hop_survives : t -> dst:int -> bool
(** One substrate forwarding hop towards [dst]: samples a fresh message
    verdict and reports whether it was delivered.  Used to fault overlay
    routing without simulating intermediate nodes. *)

val control_uniform : t -> float
(** A uniform draw in [0, 1) from the plan's control stream — for
    decisions owned by the client, e.g. retry jitter.  Deterministic
    under a fixed seed and call order. *)
