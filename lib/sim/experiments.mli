(** One entry per table and figure of the paper's evaluation (Section V),
    plus the ablations and sweeps that check its Section IV claims.

    An experiment is one value: its id and a [run] that computes the
    numbers once and lays out, in the same pass, the blocks it prints
    (tables alongside the paper's reference values, so the two can be
    eyeballed together) and the headline metrics it reports to the bench
    harness.  Simulation results are memoized per (scheme, policy) inside
    a {!Grid}, because several figures share the same runs. *)

type scale = {
  node_count : int;
  article_count : int;
  query_count : int;
  seed : int64;
}

val paper_scale : scale
(** The paper's setup: 500 nodes, 10,000 articles, 50,000 queries. *)

val quick_scale : scale
(** A reduced setup for tests and smoke runs (100 nodes, 1,000 articles,
    5,000 queries). *)

module Grid : sig
  type t

  val create : scale -> t

  val report : t -> scheme:Bib.Schemes.kind -> policy:Cache.Policy.t -> Runner.report
  (** Run (or reuse) the simulation for one cell. *)
end

type block =
  | Heading of string  (** Printed as ["\n=== <title> ===\n"]. *)
  | Table of { headers : string list; rows : string list list }
      (** Printed by {!Stdx.Tabular.print_table}. *)
  | Text of string  (** Printed as is, then a newline. *)

type result = {
  blocks : block list;  (** What the experiment prints, in order. *)
  metrics : Obs.Bench_report.metric list;
      (** Its headline numbers, flattened under ["exp/<id>/"] by
          {!Obs.Bench_report.flatten}.  Costs (interactions, bytes,
          errors) compare lower-better, success ratios (hit ratio,
          availability) higher-better, distribution shapes (slopes, gini)
          are informational. *)
}

type t = { id : string; run : Grid.t -> result }

val all : t list
(** Every experiment, in printing order: [fig7], [fig9], [fig10],
    [storage], [keys], [fig11]-[fig15], [table1], the [ablation-*]
    experiments, then the [*-sweep]s.  Grid-backed experiments share
    simulation runs through the memoized {!Grid}; the others ignore it
    and use only its scale.  Every run is deterministic: the same scale
    produces the identical result. *)

val find : string -> t option
(** The experiment with that id, if any. *)

val print : result -> unit
(** Print the result's blocks to stdout. *)
