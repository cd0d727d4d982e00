(** Query-log traces: save and replay workloads.

    The paper drives its user model from the BibFinder and NetBib query
    logs.  This module gives the equivalent artifact for the synthetic
    workload: a generated query stream can be written to a log (one line per
    query: target rank, structure, canonical query string) and replayed
    later — so experiments can be rerun on the exact same stream, shared, or
    inspected by hand. *)

type line = {
  target_rank : int;  (** Rank (= id) of the article the user wanted. *)
  structure : Query_gen.structure;
  query_string : string;  (** Canonical rendering, for human readers. *)
}

val line_of_event : Query_gen.event -> line
val to_line : line -> string
(** Tab-separated: rank, structure label, query string. *)

(* lint: allow X1 — test view: parses one trace line, so the format is checked without files *)
val of_line : string -> line
(** @raise Invalid_argument on a malformed line. *)

val save : out_channel -> Query_gen.event list -> unit

val load_lines : in_channel -> line list
(** @raise Invalid_argument on malformed content. *)

val replay : articles:Bib.Article.t array -> line list -> Query_gen.event list
(** Reconstruct the events against a corpus: each line's target is looked
    up by rank and its query rebuilt from the structure, then checked
    against the recorded string.
    @raise Invalid_argument when a rank is out of range or a rebuilt query
    disagrees with the recorded string (the trace belongs to a different
    corpus). *)
