(** Deterministic views over [Stdlib.Hashtbl].

    [Hashtbl.fold] and [Hashtbl.iter] visit bindings in bucket order, which
    depends on insertion history and the hash function — two tables holding
    the same bindings can be visited in different orders.  Any fold that
    builds an ordered result (a list, a report, a float sum) from that order
    silently breaks the repo's byte-for-byte determinism contract.  The
    functions here give call sites a canonical replacement: collect, sort by
    key, then fold/iterate in ascending key order.

    All functions assume the [Hashtbl.replace] discipline (at most one
    binding per key), which every table in this codebase follows.  [compare]
    defaults to the polymorphic [Stdlib.compare]; pass the key module's own
    comparison when one exists (e.g. [~compare:Key.compare]).

    The linter's D2 rule ([unordered-iteration], see [lib/lint]) flags
    order-sensitive [Hashtbl.fold]/[iter] call sites and points them here. *)

val sorted_bindings :
  ?compare:('k -> 'k -> int) -> ('k, 'v) Hashtbl.t -> ('k * 'v) list
(** The table's bindings, sorted by key in ascending order. *)

val fold_sorted :
  ?compare:('k -> 'k -> int) ->
  ('k -> 'v -> 'acc -> 'acc) ->
  ('k, 'v) Hashtbl.t ->
  'acc ->
  'acc
(** [fold_sorted f tbl init] is [Hashtbl.fold f tbl init] with the bindings
    visited in ascending key order. *)

val iter_sorted :
  ?compare:('k -> 'k -> int) -> ('k -> 'v -> unit) -> ('k, 'v) Hashtbl.t -> unit
(** [iter_sorted f tbl] is [Hashtbl.iter f tbl] with the bindings visited in
    ascending key order. *)
