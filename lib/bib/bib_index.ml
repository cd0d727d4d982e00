(** The distributed index instantiated over bibliographic field queries —
    what the paper's simulations run on. *)

include P2pindex.Index.Make (Bib_query)

(** Publish a whole corpus under a scheme. *)
let publish_corpus t ~kind articles =
  publish_batch t ~scheme:(Schemes.scheme kind) ~msd:Bib_query.msd ~file:Article.file articles

(** Soft-state refresh: every publisher re-sends its entries with fresh
    TTLs, restoring copies lost to churn. *)
let republish_corpus t ~kind articles =
  republish_batch t ~scheme:(Schemes.scheme kind) ~msd:Bib_query.msd ~file:Article.file articles
