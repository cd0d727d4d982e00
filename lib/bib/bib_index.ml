(** The distributed index instantiated over bibliographic field queries —
    what the paper's simulations run on. *)

include P2pindex.Index.Make (Bib_query)

(** Publish a whole corpus under a scheme. *)
let publish_corpus t ~kind articles =
  publish_batch t ~scheme:(Schemes.scheme kind) ~msd:Bib_query.msd ~file:Article.file articles
