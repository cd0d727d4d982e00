(** In-source suppressions for lint rules.

    Two forms are recognized, both requiring a non-empty justification:

    - a single-line comment
      [(* lint: allow <rule> — <justification> *)]
      which suppresses [<rule>] on the comment's own line and on the line
      after it (the separator may be [—], [-] or [:]);
    - an attribute [[\@lint.allow "<rule>: <justification>"]] attached to an
      expression, value binding or structure item, which suppresses
      [<rule>] over the attributed node's whole line span.  The floating
      form [[\@\@\@lint.allow "..."]] suppresses for the entire file.

    [<rule>] is a rule code ([D2]) or id ([unordered-iteration]),
    case-insensitive.  A suppression that names an unknown rule or omits
    the justification does not suppress anything and is itself reported
    (code [S1], [bad-suppression]) — so every silenced finding carries an
    auditable reason.

    The [missing-mli] (H1) rule is file-scoped, so any of its suppressions
    anywhere in the file applies. *)

val rule : Rule.t
(** The registry entry for S1, so it can be listed, selected and disabled
    by name.  Its check is a no-op: {!of_comments} and {!of_ast} report
    malformed suppressions as they collect them, and the syntactic engine
    keeps those reports only when S1 is among the rules run. *)

type t = {
  rule_name : string;  (** As written; matched via {!Rule.matches}. *)
  from_line : int;
  to_line : int;  (** Inclusive. *)
}


val of_comments :
  known:Rule.t list -> rel:string -> string -> t list * Rule.violation list
(** Scan raw file text for comment suppressions.  Returns the suppressions
    and the violations for malformed ones. *)

val of_ast :
  known:Rule.t list ->
  rel:string ->
  Parsetree.structure ->
  t list * Rule.violation list
(** Collect [[\@lint.allow]] attribute suppressions from a parsed file. *)

val covers : rules:Rule.t list -> t list -> Rule.violation -> bool
(** Whether any suppression silences the violation: the named rule must
    match the violation's rule and the violation's line must fall in the
    suppression's range (any range for the file-scoped H1). *)
