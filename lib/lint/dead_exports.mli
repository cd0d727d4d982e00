(** X1 [dead-export]: interface values no other compilation unit uses.

    A whole-program rule over the [.cmti] and [.cmt] files dune emits
    (found by {!Typed_engine.find_cmts}): every [val] an interface under
    [lib/], [bin/], [bench/], [test/] or [examples/] declares — nested
    [module M : sig ... end] signatures included — must be referenced by
    some implementation {e outside} its own unit, else it is reported.
    A reference is matched by the declaration's compiler uid, which every
    use in another unit carries, so module aliases, [open]s and library
    wrappers all resolve to the right declaration.  Uses only inside the
    own [.ml] do not count: such a value belongs in the implementation,
    not the interface.

    Values reached without a name (through a functor argument or a
    first-class module) look unused; they take the comment suppression
    form on the line above the [val]. *)

val rule : Rule.t
(** The registry entry (a no-op per-file check: the real check is
    {!run}, which needs every unit at once). *)

val run :
  known:Rule.t list ->
  root:string ->
  ?exclude:(string -> bool) ->
  cmt_dirs:string list ->
  unit ->
  Rule.violation list
(** The surviving X1 violations over every interface found under
    [cmt_dirs] whose source exists under [root], in
    {!Rule.compare_violation} order.  [exclude] drops sources by
    root-relative path, on both the declaring and the referencing side. *)
