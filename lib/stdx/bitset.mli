(** A packed bitset over [Bytes]: one bit per index, every access
    bounds-checked.  Node liveness, and the per-node tables and caches
    built on first write, use it. *)

type t

val create : len:int -> default:bool -> t
(** [len] bits, all set to [default].
    @raise Invalid_argument when [len < 0]. *)

val length : t -> int

val get : t -> int -> bool
(** @raise Invalid_argument when the index is outside [\[0, length)]. *)

val set : t -> int -> bool -> unit
(** @raise Invalid_argument when the index is outside [\[0, length)]. *)
