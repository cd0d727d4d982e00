(** A growable int buffer with an explicit length — the reusable
    scratch space replica sets are resolved into, replacing the
    [int list] a resolver would otherwise allocate per lookup. *)

type t

val create : ?capacity:int -> unit -> t
(** An empty buffer with room for [capacity] (default 8) values.
    @raise Invalid_argument when [capacity < 1]. *)

val length : t -> int
val clear : t -> unit

val push : t -> int -> unit
(** Append, growing the backing array as needed (amortized O(1),
    allocation-free while within capacity). *)

val get : t -> int -> int
(** @raise Invalid_argument when [i] is outside [\[0, length)]. *)

val unsafe_get : t -> int -> int

val to_list : t -> int list
(** The buffer's contents as a fresh list (cold paths and tests). *)
