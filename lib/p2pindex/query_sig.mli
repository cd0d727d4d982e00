(** The query abstraction the distributed index is parameterized over.

    The index layer (Section IV) never inspects query internals: it only
    needs a canonical string (to derive the DHT key and account wire bytes),
    the covering relation, a compatibility test for pruning during
    generalization/specialization, and a generalization step.  Any module
    satisfying [QUERY] — the generic XPath instance, the bibliographic field
    queries, or an application's own query language — can be indexed. *)

module type QUERY = sig
  type t

  val equal : t -> t -> bool

  val compare : t -> t -> int
  (** Total order consistent with {!equal} (canonical forms compare equal
      iff equivalent). *)

  val hash : t -> int
  (** Consistent with {!equal}: equal queries hash alike.  Publication
      finds a staged child by it. *)

  val to_string : t -> string
  (** Canonical rendering: injective on normalized queries.  [to_string q]
      is the string hashed into the DHT key space ([k = h(q)]) and its
      length is the wire size of [q]. *)

  val pp : Format.formatter -> t -> unit

  val covers : t -> t -> bool
  (** [covers q' q] is the paper's [q' ⊒ q]: every descriptor matching [q]
      also matches [q'].  Must be reflexive and transitive. *)

  val compatible : t -> t -> bool
  (** [compatible a b] may be [false] only when no descriptor can match both
      [a] and [b]; returning [true] is always sound (the search just prunes
      less).  Used to direct specialization after a generalization step. *)

  val generalizations : t -> t list
  (** Immediate generalizations of a query — each result must cover the
      input.  Must eventually reach queries general enough to be indexed (or
      run out, ending the generalization search). *)
end
