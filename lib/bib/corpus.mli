(** Synthetic DBLP-like corpus generation.

    The paper builds its database from the DBLP archive (115,879 article
    entries) and simulates over the 10,000 most popular ones.  The archive
    itself is not shipped here, so this module generates a corpus with the
    same shape: a shared author pool with skewed productivity (a few authors
    write many papers), multi-author articles, mostly-unique titles, a few
    dozen venues of skewed size, and two decades of publication years.
    Generation is deterministic from the seed. *)

type config = {
  article_count : int;
  author_pool : int;  (** Distinct authors to draw from. *)
  venue_count : int;
  first_year : int;
  last_year : int;
  author_skew : float;  (** Zipf exponent for author productivity. *)
  venue_skew : float;  (** Zipf exponent for venue size. *)
}

val default_config : article_count:int -> config
(** The simulation defaults: an author pool of [article_count / 5]
    (at least 10), 30 venues, years 1980-2003, author skew 0.72, venue skew
    0.7 — giving DBLP-like sharing of authors across articles (an average of
    about six articles per author, tens for the most productive ones). *)

val generate : seed:int64 -> config -> Article.t array
(** [generate ~seed config] returns [config.article_count] articles with
    ids 1..count (the popularity ranks).
    @raise Invalid_argument on nonsensical configurations. *)

val distinct_authors : Article.t array -> Article.author list
(** All authors appearing in the corpus, deduplicated. *)
