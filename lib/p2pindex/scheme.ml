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
  edges : 'q -> 'q edge list;
      (** All mappings for one descriptor, given its most specific query.
          Every returned edge must satisfy [covers parent child]. *)
}

let make ~name ~edges = { name; edges }

let edges t msd = t.edges msd

(** The edges for a whole collection, deduplicated — shared coarse-level
    entries like [(q6 ; q3)] appear once even when many files induce them. *)
let collection_edges ~compare_query t msds =
  let compare_edge a b =
    let c = compare_query a.parent b.parent in
    if c <> 0 then c else compare_query a.child b.child
  in
  List.sort_uniq compare_edge (List.concat_map (edges t) msds)
