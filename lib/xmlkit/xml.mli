(** Minimal semi-structured XML documents.

    File descriptors in the paper (Fig. 1) are small XML trees such as
    [<article><author><first>John</first>...</article>].  This module gives
    the element tree and its printer. *)

type t =
  | Element of string * t list  (** [Element (name, children)]. *)
  | Text of string  (** Character data. *)

val element : string -> t list -> t
(** Convenience constructor. *)

val leaf : string -> string -> t
(** [leaf name value] is [<name>value</name>]. *)

val children : t -> t list
(** Child nodes; [\[\]] for text nodes. *)

val text_content : t -> string
(** Concatenated text descendants, in document order. *)

val find_child : t -> string -> t option
(** First child element with the given name. *)

(* lint: allow X1 — test view: repeated fields (a multi-author descriptor) in document order *)
val find_children : t -> string -> t list
(** All child elements with the given name, in document order. *)

val to_string : ?indent:bool -> t -> string
(** Serialize; [indent] pretty-prints with two-space indentation. *)

val size_bytes : t -> int
(** Length of the compact serialization — the unit of the paper's storage
    accounting. *)
