(** Lookup tracing: one {!span} per user–system interaction, grouped into
    one {!trace} per lookup chain.

    The index layer emits a span for every {!P2pindex.Index.S.lookup_step}:
    the query string, the responsible node, the substrate route hops (when
    measured), whether a cache shortcut answered, the result-set size, the
    request/response bytes under the wire model, and the interaction's
    {!outcome}.  A collector keeps finished traces in a ring buffer
    (bounded collectors drop the oldest trace) and exports them as JSONL —
    one span object per line — which this module can also read back. *)

type outcome =
  | Msd_reached  (** The step returned a file: a most specific descriptor. *)
  | Refined  (** The step returned more specific queries to descend into. *)
  | Generalized
      (** The step probed a generalization of a non-indexed query and found
          an indexed entry (Section IV-B recovery). *)
  | Not_found  (** The step hit a key with no entry anywhere. *)

val outcome_label : outcome -> string

type span = {
  trace_id : int;
  seq : int;  (** Position within the trace, starting at 0. *)
  query : string;
  node : int;  (** Responsible node contacted. *)
  route_hops : int;  (** Substrate hops; 0 when not measured. *)
  cache_hit : bool;
  result_count : int;
  request_bytes : int;
  response_bytes : int;
  outcome : outcome;
}

type trace = { id : int; root : string; spans : span list  (** In seq order. *) }

(** {1 Collector} *)

type t

val create : ?capacity:int -> unit -> t
(** A collector retaining at most [capacity] finished traces (dropping the
    oldest); unbounded when omitted.  @raise Invalid_argument when
    [capacity <= 0]. *)

val begin_trace : t -> root:string -> unit
(** Open a new trace; any trace still open is finished first. *)

val end_trace : t -> unit
(** Finish the open trace (no-op when none is open). *)

val span :
  t ->
  query:string ->
  node:int ->
  ?route_hops:int ->
  ?cache_hit:bool ->
  ?result_count:int ->
  ?request_bytes:int ->
  ?response_bytes:int ->
  outcome:outcome ->
  unit ->
  unit
(** Append a span to the open trace; with no open trace, the span becomes
    a finished single-span trace of its own. *)

val traces : t -> trace list
(** Finished traces, oldest first (the open trace is not included). *)

val trace_count : t -> int
val span_count : t -> int
(** Spans across finished traces. *)

val dropped : t -> int
(** Traces evicted by the ring buffer so far. *)

(** {1 JSONL export / import} *)

val span_to_json : span -> Json.t
val span_of_json : Json.t -> (span, string) result

val to_jsonl : t -> string
(** Every span of every finished trace, one JSON object per line. *)

val output_jsonl : t -> out_channel -> unit

val spans_of_jsonl : string -> (span list, string) result
(** Parse JSONL content (blank lines are skipped); fails on the first
    malformed line. *)

val traces_of_spans : span list -> trace list
(** Regroup spans by trace id (order of first appearance); each trace's
    spans are sorted by [seq] and its root is its first span's query. *)
