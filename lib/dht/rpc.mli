(** Fault-aware request/response messaging over the accounting network.

    {!Network.t} only measures traffic; this layer adds delivery
    semantics on top of it.  Every RPC consults a {!Faults.Plan} for a
    per-message verdict (lost, delayed, duplicated), waits out a
    deadline, retries with exponential backoff and jitter, and can hedge
    the first attempt with a second request to the next replica.  All
    decisions are pure functions of the plan seed, so a faulty run
    replays bit-for-bit.

    With the zero plan, {!call} degenerates to exactly the billing the
    pre-fault code performed — one request (plus optional route-hop
    maintenance), a touch and one response when the handler answers —
    and never advances the clock, so fault-free simulations stay
    byte-identical to their historical output. *)

type config = {
  timeout : float;  (** Virtual seconds an attempt waits for its reply. *)
  retries : int;  (** Extra attempts after the first one times out. *)
  backoff : float;  (** Base pause before the first retry. *)
  backoff_factor : float;  (** Multiplier applied per further retry. *)
  jitter : float;
      (** Relative jitter: each pause is scaled by a uniform factor in
          [1, 1 + jitter]. *)
  hedge : bool;  (** Fire a second request when the first runs long. *)
  hedge_delay : float;
      (** How long the first attempt may run before the hedge fires. *)
}

val default_config : config
(** timeout 0.5, retries 2, backoff 0.05 doubling, jitter 0.5, hedging
    off with a 0.25 hedge delay. *)

type clock = { now : unit -> float; advance : float -> unit }
(** The virtual clock RPCs spend time on.  [advance] is called with the
    round-trip time of a successful call, the full [timeout] of a failed
    attempt and every backoff pause. *)

type 'a reply =
  | Reply of { bytes : int; value : 'a }
      (** The node answered with a [bytes]-sized response. *)
  | No_response  (** The node is down; the request is never answered. *)

type 'a outcome =
  | Answered of { value : 'a; node : int }
      (** [node] is the replica whose answer won (the hedge target when
          the hedge came back first). *)
  | Exhausted
      (** Every attempt timed out or was lost — degrade gracefully. *)

type t

val create :
  ?network:Network.t ->
  ?metrics:Obs.Metrics.t ->
  ?plan:Faults.Plan.t ->
  ?config:config ->
  ?clock:clock ->
  ?resolver:Resolver.t ->
  ?charge_route_hops:bool ->
  unit ->
  t
(** [create ()] with the defaults is a transparent channel: zero plan,
    private clock, no billing.  [network] receives the byte accounting;
    [charge_route_hops] (default false, requires [resolver]) bills
    substrate forwarding hops as maintenance and — under a faulty plan —
    lets each forwarding hop drop the request.  With [metrics], the
    [p2pindex_rpc_*] counter/histogram families are registered; leave it
    unset on fault-free runs to keep snapshots unchanged.
    @raise Invalid_argument on a non-positive timeout or hedge delay,
    negative retries/backoff/jitter, or a backoff factor below 1. *)

val plan : t -> Faults.Plan.t
val settings : t -> config
val now : t -> float

val call :
  t ->
  dst:int ->
  ?hedge_dst:int ->
  ?route_key:Hashing.Key.t ->
  request_bytes:int ->
  handler:(node:int -> 'a reply) ->
  unit ->
  'a outcome
(** One request/response exchange with [dst].  The [handler] plays the
    remote node: it runs once per request copy the network delivers
    (twice for a duplicated request — idempotence is exercised, the
    duplicate answer suppressed) and never runs for a lost request.
    [route_key] keys the route-hop billing and per-hop faulting;
    [hedge_dst] is the replica the hedged second request goes to (only
    used when hedging is configured; must itself hold the data).
    Billing is sender-pays: requests and responses are charged to the
    network even when the plan then loses them.  The cascade runs to its
    outcome synchronously, advancing the clock as it goes, so handlers
    and soft-state reads during a retry see the later time. *)

val send_oneway :
  ?lossy:bool ->
  t ->
  dst:int ->
  bytes:int ->
  category:Network.category ->
  deliver:(unit -> bool) ->
  unit
(** Fire-and-forget message carrying [deliver], which applies the
    message's effect and reports whether it changed anything.  Reliable
    sends ([lossy] false, the default — publication and maintenance
    traffic) deliver immediately; on the zero plan the message is billed
    only when [deliver] returns true, preserving the historical
    bill-only-when-fresh accounting.  Lossy sends (cache updates, per
    the soft-state design) are billed at send time, may be silently
    dropped, and arrive through the outbox after the plan's latency —
    duplicated copies run [deliver] again. *)

val deliver_until : t -> now:float -> int
(** Run every delayed one-way delivery due by [now], earliest arrival
    first and ties in posting order; returns how many ran. *)

val flush_deliveries : t -> int
(** Run every remaining delayed delivery regardless of due time, in the
    same order; returns how many ran. *)

val pending_deliveries : t -> int
