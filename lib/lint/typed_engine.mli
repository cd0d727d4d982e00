(** The typed lint pass: runs the P-series rules ({!Typed_rules}) over
    the [.cmt] files dune emits under [_build].

    Discovery is deterministic: every [*.cmt] under the given directories
    is loaded in sorted path order, mapped back to its source via
    [cmt_sourcefile] (dune compiles from the project root, so these are
    already root-relative), and deduplicated first-wins.  Alias stubs
    ([.ml-gen]), interfaces, sources missing on disk and unreadable cmts
    are skipped silently — the syntactic pass owns per-file frontend
    errors.  Run [dune build \@check] first so executables' cmts exist
    too.

    Suppressions reuse the exact {!Suppress} forms of the syntactic pass
    ([(* lint: allow P2 — why *)] comments and [[\@lint.allow]]
    attributes); malformed suppressions are {e not} re-reported here —
    the syntactic pass already emits their S1s. *)

val default_cmt_dir : string
(** ["_build/default"]. *)

val run :
  rules:Rule.t list ->
  known:Rule.t list ->
  root:string ->
  ?exclude:(string -> bool) ->
  cmt_dirs:string list ->
  unit ->
  string list * Rule.violation list
(** [run ~rules ~known ~root ~cmt_dirs ()] is [(files, violations)]:
    the root-relative sources analyzed (sorted) and the surviving
    violations in {!Rule.compare_violation} order.  [rules] selects
    which P-rules report (by code) and scopes them via their [applies];
    [known] is the full namespace suppression names resolve against.
    [exclude] drops sources by root-relative path (default: none) —
    the CLI uses it to keep the lint-fixture corpus out of repo runs. *)

val find_cmts : ?suffixes:string list -> string list -> string list
(** Every file under the directories (recursively) whose name ends in
    one of [suffixes] (default [[".cmt"]]), in sorted path order. *)

val load_cmt : string -> Cmt_format.cmt_infos option
(** [None] for an unreadable or foreign-format file. *)

val surviving :
  known:Rule.t list -> root:string -> rel:string -> Rule.violation list -> Rule.violation list
(** The violations of one source file that no suppression in it
    covers. *)

val hot_names_of_cmt : string -> (string list, string) result
(** The propagated hot-scope names of one [.cmt] file, sorted — the
    surface the fixture tests pin. [Error] when the file cannot be read
    or holds no implementation. *)
