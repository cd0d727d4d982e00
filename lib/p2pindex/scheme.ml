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
      (** Every mapping for one descriptor, given its most specific query,
          in order.  Every mapping must satisfy [covers parent child]. *)
}

let make ~name ~edges =
  { name; iter = (fun msd f -> List.iter (fun { parent; child } -> f parent child) (edges msd)) }

let of_iter ~name ~iter = { name; iter }
let iter_edges t msd f = t.iter msd f

let edges t msd =
  let acc = ref [] in
  t.iter msd (fun parent child -> acc := { parent; child } :: !acc);
  List.rev !acc

(** The edges for a whole collection, deduplicated — shared coarse-level
    entries like [(q6 ; q3)] appear once even when many files induce them. *)
let collection_edges ~compare_query t msds =
  let compare_edge a b =
    let c = compare_query a.parent b.parent in
    if c <> 0 then c else compare_query a.child b.child
  in
  List.sort_uniq compare_edge (List.concat_map (edges t) msds)
