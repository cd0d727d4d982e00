(** The [p2plint] driver: parse, check, suppress, aggregate.

    Files are parsed with the compiler's own frontend ([Pparse] →
    [Parsetree]) and walked with [Ast_iterator]; a file that fails to parse
    is reported as an [E0 parse-error] violation rather than aborting the
    run.  All output is deterministic: files are scanned in sorted
    root-relative path order and violations are sorted with
    {!Rule.compare_violation}. *)

val default_dirs : string list
(** [["lib"; "bin"; "bench"; "test"]] — the sub-trees a repo-level run
    scans for [.ml] files. *)


val read_file : string -> string
(** Raw bytes of a file (shared with {!Typed_engine}). *)

val parse : string -> (Parsetree.structure, string) result
(** Parse one implementation with the compiler frontend; [Error] carries
    a one-line summary of the failure. *)

val lint_tree :
  rules:Rule.t list ->
  ?known:Rule.t list ->
  root:string ->
  dirs:string list ->
  unit ->
  string list * Rule.violation list
(** [lint_tree ~rules ~root ~dirs ()] is [(files_scanned, violations)],
    both sorted.  [known] (default [rules]) is the namespace suppression
    names resolve against — pass the full registry when running a rule
    subset so a suppression for an unselected rule is not misreported as
    unknown.  Malformed suppressions are reported only when [rules]
    holds {!Suppress.rule} (S1). *)
