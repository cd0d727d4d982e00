(** The default rule registry of [p2plint].

    Every rule is purely syntactic (parsetree-level, no typing), erring on
    the side of flagging: a site the analysis cannot prove safe is reported
    and must either be rewritten or carry a justified suppression.

    - [D1 ambient-nondeterminism] — [Random.*], [Sys.time],
      [Unix.gettimeofday] and [*self_init*] anywhere but [lib/stdx/prng.ml];
      all randomness and time must flow through seeded [Stdx.Prng] values
      and virtual clocks.
    - [D2 unordered-iteration] — [Hashtbl.fold]/[Hashtbl.iter] (and the
      same on [Hashing.Key.Table]) whose callback is order-sensitive.  A fold auto-passes only when its body is
      a conservative commutative reduction over the accumulator:
      combinations of [+], [*], [land]/[lor]/[lxor], [&&]/[||], [max]/[min]
      (integer operators only — float addition is not associative, so [+.]
      does not pass), possibly under [if]/[match].  Everything else —
      building lists, I/O, unknown functions, every [iter] — is flagged;
      route it through [Stdx.Det_tbl].
    - [D3 phys-equal] — physical equality ([==]/[!=]) and [Obj.magic]:
      representation-dependent and a determinism/refactor hazard.
    - [E1 catch-all-handler] — [try … with _ ->] and [with Failure _ ->]
      swallow unexpected exceptions, hiding broken invariants.
    - [H1 missing-mli] — every module under [lib/] must have an interface.
    - [O1 metric-naming] — metric name literals passed to
      [counter]/[gauge]/[histogram] registrations must match
      [p2pindex_<subsystem>_<name>]; counters must end in [_total] (and
      only counters or [_seconds]-suffixed durations may carry a unit
      suffix).  Not applied under [test/], where registry tests exercise
      arbitrary names.

    - [S1 bad-suppression] — suppressions naming unknown rules or lacking
      a justification; see {!Suppress}.

    The typed P-series (P1 hot-closure, P2 polymorphic-compare, P3
    boxed-allocation, P4 list-per-event) lives in {!Typed_rules} and runs
    over [.cmt] files via {!Typed_engine}, and the whole-program X1
    dead-export rule lives in {!Dead_exports}; {!everything} carries
    their registry stubs so CLI selection and suppression validation
    share one namespace. *)

val everything : Rule.t list
(** The full rule namespace: every syntactic rule, in code order (D1, D2,
    D3, E1, H1, O1, S1), then the typed stubs. *)

val find : string -> Rule.t option
(** Look up a rule by code or id, case-insensitive, across
    {!everything}. *)
