(** Session-lifetime distributions for the churn engine.

    Sessions and downtimes are memoryless: exponential with a given
    mean, the shape early measurement studies of deployed peer-to-peer
    networks fit. *)

type t
(** An exponential distribution. *)

val exponential : mean:float -> t
(** @raise Invalid_argument when [mean <= 0]. *)

val mean : t -> float

val sample : t -> Stdx.Prng.t -> float
(** Draw a lifetime by inversion from the PRNG's next float.  Always
    strictly positive and finite. *)

val label : t -> string
(** ["exp(mean=30)"] — for reports. *)
