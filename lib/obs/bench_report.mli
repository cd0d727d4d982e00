(** Structured benchmark reports: the versioned, machine-readable form of
    a bench-harness run ([BENCH_<label>.json]), and the substrate the CI
    regression gate compares.

    A report carries, per micro-benchmark, fixed-iteration allocation
    accounting (and optionally Bechamel wall-clock estimates), and per
    reproduction experiment a [Gc.quick_stat] delta plus the experiment's
    headline cost metrics (interactions per query, billed bytes, hit
    ratios — see {!Sim.Experiments.result}).

    {b Determinism.}  Serialization is canonical: fields in a fixed
    order, floats printed with {!Json.to_string}'s shortest round-trip
    form, one trailing newline.  In the default {e strict} mode every
    recorded quantity is a deterministic function of the code and the
    seed — wall-clock fields are [null] — so the same binary invoked with
    the same arguments writes a byte-identical file, and a diff between
    two reports is meaningful down to the last bit.  With [timed = true]
    the harness fills the wall-clock fields and the byte-reproducibility
    guarantee is deliberately forfeited (the remaining fields stay
    deterministic).

    Unknown schema versions are rejected on read: bump the version (1)
    when the shape changes, and teach the reader the old form if old
    baselines must stay readable. *)

type direction =
  | Lower_better  (** Costs: interactions, bytes, allocation, time. *)
  | Higher_better  (** Yields: hit ratio, availability, lookup success. *)
  | Informational  (** Tracked but never gated (model-fit slopes, peaks). *)

type metric = { name : string; value : float; better : direction }

val metric : string -> direction -> float -> metric

type gc_delta = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

val gc_delta : before:Gc.stat -> after:Gc.stat -> gc_delta
(** Field-wise difference of two [Gc.quick_stat] readings. *)

type micro = {
  micro_name : string;
  runs : int;  (** Fixed iteration count the allocation columns average over. *)
  time_ns_per_run : float option;  (** [None] in strict mode. *)
  minor_words_per_run : float;
  promoted_words_per_run : float;
  major_words_per_run : float;
}

type experiment = {
  exp_id : string;  (** An id from {!Sim.Experiments.all}. *)
  wall_ns : int64 option;  (** [None] in strict mode. *)
  gc : gc_delta;
  exp_metrics : metric list;
}

type scale = {
  node_count : int;
  article_count : int;
  query_count : int;
  seed : int64;
}

type t = {
  label : string;
  timed : bool;  (** Whether wall-clock fields were filled. *)
  scale : scale;
  micro : micro list;
  experiments : experiment list;
}

val label_of_path : string -> string
(** ["bench/BENCH_smoke.json"] → ["smoke"]: basename, minus a leading
    [BENCH_] and a trailing [.json]. *)

(** {1 Serialization} *)


val to_string : t -> string
(** Canonical single-line JSON document plus a trailing newline. *)

val of_string : string -> (t, string) result

val write : path:string -> t -> unit
val read : path:string -> (t, string) result

(** {1 The flat metric view}

    The diff tool compares reports metric-by-metric; [flatten] projects
    every quantity into one namespaced list:

    - [micro/<name>/minor_words_per_run] (and promoted/major, and
      [time_ns_per_run] when timed) — all {!Lower_better};
    - [exp/<id>/gc/minor_words] (etc.) — {!Lower_better};
    - [exp/<id>/wall_ns] when timed — {!Lower_better};
    - [exp/<id>/<metric.name>] with the metric's own direction. *)

val flatten : t -> metric list
(** Sorted by name; names are unique within a well-formed report. *)
