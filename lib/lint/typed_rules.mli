(** The typed P-series rules, run over the [[\@hot]] scopes of a
    {!Callgraph.t}.

    These checks need types and resolved paths, so unlike the D/E/H/O
    rules they are not [Rule.check] functions over raw sources — the
    {!Typed_engine} drives them over [.cmt] trees.  {!stubs} exposes
    them as ordinary (no-op) {!Rule.t} values so the registry, CLI rule
    selection, [--list-rules] and suppression validation see one uniform
    rule namespace.

    Allocation-depth semantics: inside a hot scope, depth counts the
    function bodies entered from the scope's root expression, with a
    curried chain ([fun a -> fun b -> …] or [fun a b -> …], single case,
    no guard) collapsed to one body — the compiler compiles it to one
    n-ary closure.  Depth 0 is definition time (runs once — never
    flagged); depth ≥ 1 runs per call, where all four rules apply. *)

val stubs : Rule.t list
(** [[p1; p2; p3; p4]], each with a no-op [check] — registry entries
    only; the real checks run in {!check_scope}. *)

val check_scope :
  rel:string ->
  graph:Callgraph.t ->
  Callgraph.scope ->
  Rule.violation list
(** All P1–P4 violations of one hot scope, in traversal order (the
    engine sorts globally). *)
