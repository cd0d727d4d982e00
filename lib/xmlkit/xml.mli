(** Minimal semi-structured XML documents.

    File descriptors in the paper (Fig. 1) are small XML trees such as
    [<article><author><first>John</first>...</article>].  This module gives
    the element tree, a parser, a printer, and the canonical ordering used to
    compare descriptors structurally. *)

type t =
  | Element of string * (string * string) list * t list
      (** [Element (name, attributes, children)]. *)
  | Text of string  (** Character data (whitespace-trimmed by the parser). *)

val element : ?attrs:(string * string) list -> string -> t list -> t
(** Convenience constructor. *)

val leaf : string -> string -> t
(** [leaf name value] is [<name>value</name>]. *)

val name : t -> string option
(** Element name; [None] for text nodes. *)

val children : t -> t list
(** Child nodes; [\[\]] for text nodes. *)

val child_elements : t -> t list
(** Child nodes that are elements. *)

val text_content : t -> string
(** Concatenated text descendants, in document order. *)

val find_child : t -> string -> t option
(** First child element with the given name. *)

val find_children : t -> string -> t list
(** All child elements with the given name, in document order. *)

val equal : t -> t -> bool
(** Structural equality (attribute order-insensitive, child order-sensitive). *)

val canonical_compare : t -> t -> int
(** A total order on documents that ignores sibling order: children are
    compared as multisets.  Two descriptors that differ only in field order
    compare equal, which is what descriptor identity requires. *)

val to_string : ?indent:bool -> t -> string
(** Serialize; [indent] pretty-prints with two-space indentation. *)

val size_bytes : t -> int
(** Length of the compact serialization — the unit of the paper's storage
    accounting. *)

exception Parse_error of string

val of_string : string -> t
(** Parse a single document (an optional XML declaration followed by one
    root element).  Supports elements, attributes, character data, comments
    and the five predefined entities.  @raise Parse_error on malformed
    input. *)
