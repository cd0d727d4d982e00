(** The distributed index instantiated over bibliographic field queries —
    what the paper's simulations run on. *)

include P2pindex.Index.S with type query = Bib_query.t

val publish_corpus : t -> kind:Schemes.kind -> Article.t array -> unit
(** Publish a whole corpus under a scheme; {!republish} refreshes it. *)
