(** The XPath subset of Section III-B, with the covering relation.

    A query is an existential tree pattern over XML documents: location steps
    separated by [/] (child) or [//] (descendant), element name tests or the
    wildcard [*], and nested predicates in brackets.  Values are written as
    final location steps, as in the paper:

    {v /article[author[first/John][last/Smith]][conf/INFOCOM] v}

    Semantics: a document {e matches} a query iff there is an embedding of
    the pattern into the document tree — name tests match elements of that
    name or text nodes with that content, [*] matches any node, child edges
    map to parent/child edges, descendant edges to downward paths.

    Queries are kept in a canonical normal form (predicates sorted
    recursively), so equivalent expressions written in different orders
    compare equal — the "unique normalized format" the paper assumes. *)

type axis =
  | Child  (** [/] — direct child. *)
  | Descendant  (** [//] — any strict descendant. *)

type test =
  | Name of string  (** An element name, or a value at leaf position. *)
  | Prefix of string
      (** [p*] — any element or value starting with [p]: the "substring
          matching" generalization of Section IV-C (e.g. all authors whose
          name starts with a given letter). *)
  | Wildcard  (** [*] — matches any node. *)

type node
(** One pattern node: an incoming axis, a test, and sub-patterns. *)

type t
(** A normalized query. *)

val top_nodes : t -> node list
val node_axis : node -> axis
val node_test : node -> test
val node_children : node -> node list

val equal : t -> t -> bool
val compare : t -> t -> int
val to_string : t -> string
(** Canonical rendering: single-child chains print inline ([first/John]),
    multi-child nodes print bracketed predicates.  [to_string] is injective
    on normalized queries and is the string hashed into the DHT key space. *)

val pp : Format.formatter -> t -> unit

exception Parse_error of string

val of_string : string -> t
(** Parse and normalize.  @raise Parse_error on malformed input. *)

(* lint: allow X1 — oracle: the embedding semantics that covers is checked against *)
val matches : t -> Xmlkit.Xml.t -> bool
(** [matches q doc]: does [doc] match [q]? *)

val of_document : Xmlkit.Xml.t -> t
(** The {e most specific query} (MSD) of a descriptor: the pattern that tests
    the presence of every element and value in the document (Section III-B).
    [matches (of_document d) d] always holds. *)

val covers : t -> t -> bool
(** [covers q' q] is the covering relation [q' ⊒ q]: every document matching
    [q] also matches [q'].  Decided by searching for a pattern homomorphism
    from [q'] into [q] — sound in general, and complete for patterns that do
    not combine [//] and [*] (all queries in this project).  Reflexive and
    transitive; a partial order on normalized queries.

    On prefix tests the relation is asymmetric by design: [Smi*] covers
    [Smith*] (the {e shorter} pattern is the more general one), while
    [Smith*] does not cover [Smi*]. *)

val generalizations : t -> t list
(** Immediate generalizations: all queries obtained by deleting one leaf
    pattern node (never the whole query).  Each result covers the input.
    Empty when only a single pattern node remains. *)
