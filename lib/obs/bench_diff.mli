(** Compare two {!Bench_report}s metric by metric — the engine behind
    [bin/benchdiff.exe] and the CI regression gate.

    Both reports are {!Bench_report.flatten}ed and joined by metric name.
    Each pair gets a relative threshold (by default: allocation-per-run and GC
    word metrics 0.35, GC collection counts 0.5, wall-clock metrics 0.25,
    everything else 0.005; or a caller-supplied policy) and a verdict:

    - {e Regression} — the current value is worse than baseline by more
      than the threshold, in the metric's own direction
      ({!Bench_report.Lower_better} metrics regress upward,
      {!Bench_report.Higher_better} downward);
    - {e Improvement} — better than baseline by more than the threshold;
    - {e Within} — inside the threshold band (and always, for
      {!Bench_report.Informational} metrics);
    - {e Missing} — present in the baseline but absent from the current
      report: lost coverage, which {b fails} the gate just as a
      regression does (a gate that can be passed by deleting the metric
      is no gate);
    - {e Added} — new in the current report; never fails.

    The relative delta is computed against [max |baseline| eps], so a
    zero baseline (e.g. an error count of 0) makes any worsening an
    unbounded relative change — deliberately: those metrics regress the
    moment they move at all.  GC collection counts are the exception:
    on top of their threshold they get an absolute slack of one
    collection, so 0 -> 1 is within and 0 -> 2 regresses. *)

type verdict = Regression | Improvement | Within | Missing | Added

type row = {
  name : string;
  baseline : float option;  (** [None] for {!Added} rows. *)
  current : float option;  (** [None] for {!Missing} rows. *)
  delta : float option;
      (** Signed relative change, positive = worse (direction-adjusted);
          [None] when either side is absent or the metric is
          informational. *)
  threshold : float;
  verdict : verdict;
}

type result = {
  rows : row list;  (** Sorted by metric name. *)
  compared : int;  (** Rows present on both sides. *)
  regressions : int;
  improvements : int;
  missing : int;
  added : int;
}

val compare_reports :
  ?threshold_for:(string -> float) ->
  baseline:Bench_report.t ->
  Bench_report.t ->
  (result, string) Stdlib.result
(** [compare_reports ~baseline current] — [Error] when the reports are
    not comparable: different scales (the metrics would differ for
    reasons that are not regressions). *)

val ok : result -> bool
(** No regressions and no missing metrics. *)

val render : ?all:bool -> result -> string
(** A deterministic table of the rows — only the noteworthy ones
    (everything except {!Within}) unless [all] — followed by a one-line
    summary ending in [PASS] or [FAIL]. *)
