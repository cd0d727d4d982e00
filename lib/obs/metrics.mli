(** The metrics registry: named counters, gauges and fixed-bucket
    histograms with labels.

    Every subsystem (the index layer, the DHT substrates, the shortcut
    caches, the simulator) emits into one registry; exporters read a
    consistent {!snapshot} out of it.  The design follows the Prometheus
    data model: a {e family} is a named metric of one kind, and each
    distinct label set under it is an independent {e series}.

    Instruments are cheap mutable cells: fetch them once
    ([counter]/[gauge]/[histogram] return the {e same} instrument for the
    same name and label set — instrument identity) and bump them on the hot
    path without further lookups. *)

type labels = (string * string) list
(** Label pairs; order is irrelevant (they are kept sorted by name). *)

module Counter : sig
  type t

  val incr : ?by:int -> t -> unit
  (** Add [by] (default 1).  @raise Invalid_argument when [by < 0]:
      counters are monotone. *)

  val add : t -> int -> unit
  (** [add c n] is [incr ~by:n c] without boxing the optional argument —
      for per-message hot paths. *)

  val value : t -> int

  val reset : t -> unit
  (** Zero the counter — for instruments mirroring an accounting layer
      that itself resets (e.g. {!Dht.Network.reset} after corpus
      publication). *)
end

module Gauge : sig
  type t

  val set : t -> float -> unit
end

module Histogram : sig
  type t

  val observe : t -> float -> unit
  val observe_int : t -> int -> unit
end

val linear_buckets : start:float -> step:float -> count:int -> float array
val exponential_buckets : start:float -> factor:float -> count:int -> float array

(** {1 Registry} *)

type t

val create : unit -> t

val counter : t -> ?help:string -> ?labels:labels -> string -> Counter.t
(** Fetch-or-create.  Metric and label names must match
    [[a-zA-Z_:][a-zA-Z0-9_:]*].
    @raise Invalid_argument on a malformed name or when [name] is already
    registered with a different kind. *)

val gauge : t -> ?help:string -> ?labels:labels -> string -> Gauge.t

val histogram :
  t -> ?help:string -> ?labels:labels -> ?buckets:float array -> string -> Histogram.t
(** [buckets] (default: a 1–1000 log-ish ladder) are the strictly increasing
    upper bounds; they are fixed by the first registration of the family
    and ignored afterwards.  @raise Invalid_argument when not strictly
    increasing or empty. *)

(** {1 Snapshots} *)

type kind = Counter_kind | Gauge_kind | Histogram_kind

val kind_label : kind -> string
(** ["counter"], ["gauge"], ["histogram"] — the Prometheus TYPE names. *)

type histogram_snapshot = {
  buckets : (float * int) list;
      (** [(upper_bound, cumulative_count)] per bucket, in increasing bound
          order, ending with the [infinity] bucket whose count equals
          [count]. *)
  sum : float;
  count : int;
}

type value =
  | Counter_value of int
  | Gauge_value of float
  | Histogram_value of histogram_snapshot

type series = { labels : labels; value : value }

type family = { name : string; help : string; kind : kind; series : series list }

type snapshot = family list

val snapshot : t -> snapshot
(** A consistent copy, families sorted by name and series by labels, so
    exports are deterministic. *)

val merge_snapshots : snapshot list -> snapshot
(** Fold per-shard snapshots into one network-wide view, merging families
    by name and series by label set: counters add, histograms add
    bucket-wise (bounds must match), gauges add — except families whose
    name ends in [_info], which are constant markers every shard carries
    and take the max instead.  Input and output keep the {!snapshot}
    ordering (families by name, series by labels), so merging preserves
    export determinism; the merge is associative, and folding in shard
    order makes the result independent of how shards were scheduled.
    @raise Invalid_argument when the same family name appears with
    different kinds or histogram bucket bounds. *)

val snapshot_quantile : histogram_snapshot -> float -> float
(** Quantile estimate from an exported histogram (bucket bounds only — no
    min/max clamping; the overflow bucket reports the last finite bound).
    [nan] when empty. *)

val counter_total : snapshot -> string -> int
(** Sum of a counter family's series; 0 when the family is absent. *)

val counter_value : snapshot -> ?labels:labels -> string -> int
(** The value of one counter series, found by family name and label set
    ([labels] in any order, default none); 0 when the family or the
    series is absent. *)
