(** Streaming descriptive statistics used by the simulation harness to
    aggregate per-query metrics. *)

module Summary : sig
  type t
  (** A mutable accumulator of float observations. *)

  val create : unit -> t
  val add : t -> float -> unit
  val add_int : t -> int -> unit
  val count : t -> int
  val mean : t -> float
  (** Mean of the observations; 0 when empty. *)

  val max : t -> float
  (** Largest observation; [neg_infinity] when empty. *)

  val merge : t -> t -> t
  (** [merge a b] is a fresh summary describing the union of both streams. *)
end

val percentile : float array -> float -> float
(** [percentile values p] with [p] in [\[0, 100\]]; sorts a copy, linear
    interpolation between ranks.  @raise Invalid_argument on empty input. *)

val gini : float array -> float
(** Gini coefficient of a non-negative load distribution: 0 = perfectly
    balanced, 1 = one node carries everything.  Used for the hot-spot
    analysis (Fig. 15).  Returns 0 on empty or all-zero input. *)

val linear_fit : (float * float) list -> float * float
(** [linear_fit points] is the least-squares [(slope, intercept)] of y on x.
    Used to recover power-law exponents from log-log series, mirroring the
    paper's "minimum square method" fit.  @raise Invalid_argument when fewer
    than two points are given. *)
