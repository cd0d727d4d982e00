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
  retries : int;
      (** Extra attempts after the first one times out.  The pause before
          retry [k] (from 0) is [0.05 *. 2 ** k *. (1 +. 0.5 *. u)] with
          [u] uniform in [0, 1), drawn from the plan's control stream. *)
  hedge : bool;
      (** Fire a second request when the first has run [timeout /. 2]. *)
}

val default_config : config
(** timeout 0.5, retries 2, hedging off. *)

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
    @raise Invalid_argument on a non-positive or non-finite timeout or
    negative retries. *)

(* lint: allow X1 — test view: the channel's virtual clock, read by the timeout checks *)
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

val send : t -> dst:int -> bytes:int -> category:Network.category -> unit
(** A reliable fire-and-forget message (publication, maintenance,
    multicast and coalesced-probe traffic): counted as a one-way and
    billed under [category].  The sender applies its effect itself. *)

val send_lossy : t -> dst:int -> bytes:int -> deliver:(unit -> bool) -> unit
(** A fire-and-forget cache update carrying [deliver], which applies the
    message's effect and reports whether it changed anything.  On the
    zero plan it is delivered at once and billed only when [deliver]
    returns true.  Under a fault plan it is billed at send time, as soft
    state may be silently dropped, and arrives through the outbox after
    the plan's latency; a duplicated copy runs [deliver] again. *)

val deliver_until : t -> now:float -> int
(** Run every delayed one-way delivery due by [now], earliest arrival
    first and ties in posting order; returns how many ran. *)

val flush_deliveries : t -> int
(** Run every remaining delayed delivery regardless of due time, in the
    same order; returns how many ran. *)

(* lint: allow X1 — test view: deliveries still in flight, read by the ordering checks *)
val pending_deliveries : t -> int
