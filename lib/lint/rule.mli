(** The rule abstraction of the [p2plint] analyzer.

    A rule is a named check over one source file: it sees the file's raw
    text, its parsed AST (when parsing succeeded) and its path relative to
    the lint root, and returns violations.  Rules are plain values, so the
    engine's rule set is pluggable — [Rules.everything] is the default registry,
    and callers can filter or extend it. *)

type violation = {
  code : string;  (** Short code, e.g. ["D2"]. *)
  rule_id : string;  (** Kebab-case name, e.g. ["unordered-iteration"]. *)
  file : string;  (** Path relative to the lint root, ['/']-separated. *)
  line : int;  (** 1-based. *)
  col : int;  (** 0-based, as in compiler locations. *)
  message : string;
}

type source = {
  path : string;  (** On-disk path, for file-system checks (H1). *)
  rel : string;  (** Root-relative path used in reports and [applies]. *)
  text : string;  (** Raw file contents. *)
  ast : Parsetree.structure option;  (** [None] when parsing failed. *)
}

type t = {
  code : string;
  id : string;
  summary : string;  (** One line for [--list-rules] and the docs. *)
  applies : string -> bool;  (** Scope predicate over root-relative paths. *)
  check : source -> violation list;
}

val v :
  code:string ->
  id:string ->
  summary:string ->
  ?applies:(string -> bool) ->
  (source -> violation list) ->
  t
(** [applies] defaults to every file. *)

val violation :
  rule:t -> file:string -> loc:Location.t -> string -> violation
(** Violation at the start of [loc]. *)

val compare_violation : violation -> violation -> int
(** Report order: by file, then line, column, code and message — total, so
    reports are deterministic. *)

val matches : t -> string -> bool
(** [matches rule name] is true when [name] (case-insensitive) is the
    rule's code or id — the names accepted by suppressions and CLI rule
    selection. *)
