(** Snapshot and trace writers: Prometheus text, JSON documents, JSONL
    traces, and a human-readable table.

    File writers pick the format from the path: a [.json] suffix selects
    the JSON document form, anything else the Prometheus text form. *)

val render_table : Metrics.snapshot -> string
(** An aligned {!Stdx.Tabular} table: one row per series; histograms
    summarized as count / sum / estimated p50, p90, p99. *)

val write_metrics : path:string -> Metrics.snapshot -> unit
(** Prometheus text, or a JSON document when [path] ends in [.json]:
    [{ "families": [ { name; kind; help; series: [ { labels; ... } ] } ] }],
    where counter series carry ["value"]; gauges ["value"]; histograms
    ["count"], ["sum"] and ["buckets"] ([{"le"; "count"}], cumulative,
    with the overflow bucket's bound rendered as the string ["+Inf"]). *)

val read_metrics : path:string -> (Metrics.snapshot, string) result
(** Read back a Prometheus text file written by {!write_metrics} (the JSON
    form is write-only; pointing this at a [.json] file reports an
    error). *)

val write_trace_jsonl : path:string -> Trace.t -> unit
(** All finished traces of the collector, one span per line. *)
