(** Phase profiler: named, accumulating spans that account for where a
    run's wall-clock time and allocation go.

    A phase is a named bucket ("setup", "walk", "tally", "report"); every
    {!span} adds one call's elapsed time and GC deltas ([Gc.quick_stat]:
    minor/major words allocated, promotions, collection counts) to its
    bucket.  The simulation runner and the concurrent engine thread an
    optional collector through their stages, so a profiled run's report
    snapshot says which stage allocated and which stage burned time.

    {b Determinism.}  The clock is injected: the collector never reads
    ambient time itself, so this module stays inside the repo's
    no-ambient-nondeterminism contract (lint rule D1).  The default clock
    always returns 0 — a collector without a real clock still produces
    exact, byte-reproducible allocation accounting (GC word counts are a
    function of the code executed, not of the scheduler), with every
    elapsed time equal to zero.  Callers that want real timings (the
    CLI's [--profile-phases], the bench harness) pass a monotonic
    nanosecond clock and forfeit byte-reproducibility of the timing
    fields only. *)

type clock = unit -> int64
(** Monotonic nanoseconds.  Only differences are used. *)

type entry = {
  phase : string;
  calls : int;  (** Spans accumulated into this bucket. *)
  elapsed_ns : int64;  (** Total clock time (0 under the default clock). *)
  minor_words : float;  (** Words allocated on the minor heap. *)
  promoted_words : float;  (** Words promoted minor → major. *)
  major_words : float;  (** Words allocated on the major heap (incl. promotions). *)
  minor_collections : int;
  major_collections : int;
}

type t

val create : ?clock:clock -> unit -> t
(** A fresh collector; [clock] defaults to one that always returns 0. *)

val span : t -> string -> (unit -> 'a) -> 'a
(** [span t phase f] runs [f ()] and accumulates its elapsed time and GC
    deltas into [phase]'s bucket (created on first use).  The measurement
    is recorded even when [f] raises.  Spans of different phases must not
    nest — a nested span's costs would be double-counted in the outer
    bucket; call sites keep phases disjoint instead. *)

val span_opt : t option -> string -> (unit -> 'a) -> 'a
(** [span_opt (Some t)] is [span t]; [span_opt None phase f] is [f ()] —
    the no-profiling fast path, free of clock and GC reads. *)

val entries : t -> entry list
(** Accumulated buckets, sorted by phase name — deterministic. *)

val find : t -> string -> entry option

val total_elapsed_ns : t -> int64
(** Sum of all buckets' elapsed time. *)

val to_metrics : t -> Metrics.t -> unit
(** Export every bucket into a registry as gauges labelled
    [("phase", name)]: [p2pindex_phase_elapsed_ns],
    [p2pindex_phase_calls], [p2pindex_phase_minor_words],
    [p2pindex_phase_promoted_words], [p2pindex_phase_major_words],
    [p2pindex_phase_minor_collections] and
    [p2pindex_phase_major_collections]. *)

val render_table : t -> string
(** An aligned table of the buckets (phase, calls, elapsed ms, allocation
    columns), sorted by phase name. *)
