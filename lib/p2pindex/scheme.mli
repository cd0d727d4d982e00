(** Indexing schemes: which query-to-query mappings a file gets.

    An indexing scheme (Section IV-C, Fig. 8) decides, for each descriptor,
    the set of index entries to create: pairs [(parent ; child)] where the
    parent covers the child and following children eventually reaches the
    most specific descriptor.  The choice is application-dependent ("requires
    human input"), so a scheme is simply a named edge generator. *)

type 'q edge = { parent : 'q; child : 'q }
(** One index mapping to install: the node responsible for [h(parent)]
    stores [(parent ; child)]. *)

type 'q t = {
  name : string;
  iter : 'q -> ('q -> 'q -> unit) -> unit;
      (** [iter msd f] calls [f parent child] on every mapping for one
          descriptor, given its most specific query, in order.  Every
          mapping must satisfy [covers parent child]. *)
}

val make : name:string -> edges:('q -> 'q edge list) -> 'q t
(** A scheme from the list of its mappings. *)

val of_iter : name:string -> iter:('q -> ('q -> 'q -> unit) -> unit) -> 'q t
(** A scheme that calls back with its mappings, building no list:
    publication stages them as they come. *)

val edges : 'q t -> 'q -> 'q edge list
(** The mappings to install for one descriptor, in [iter]'s order. *)

val iter_edges : 'q t -> 'q -> ('q -> 'q -> unit) -> unit
(** [iter_edges t msd f]: [t.iter msd f]. *)

val collection_edges : compare_query:('q -> 'q -> int) -> 'q t -> 'q list -> 'q edge list
(** The edges for a whole collection, deduplicated — shared coarse-level
    entries like [(q6 ; q3)] appear once even when many files induce them. *)
