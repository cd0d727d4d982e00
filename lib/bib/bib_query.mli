(** Field queries over the bibliographic database.

    The query logs the paper studied (BibFinder, NetBib) contain conjunctive
    field queries — author, title, conference, year, and combinations — so
    the application works with a typed record of optional constraints rather
    than raw XPath.  Every query still {e is} an XPath expression: the
    canonical string (and hence the DHT key) is exactly the canonical
    rendering of the equivalent XPath pattern, which {!to_xpath} exposes and
    the test suite verifies.

    The module satisfies {!P2pindex.Query_sig.QUERY} and is what the
    simulations index. *)

type fields = {
  author : Article.author option;
  title : string option;
  conf : string option;
  year : int option;
}

type t =
  | Fields of fields  (** A broad query: the conjunction of set fields. *)
  | Msd of Article.t  (** The most specific descriptor of an article. *)
  | Author_last_prefix of string
      (** All authors whose last name starts with the given prefix — the
          "substring matching" index keys of Section IV-C ("all the files
          of an author that start with the letter A").  Rendered as
          [/article/author/last/A*]. *)

(** {1 Constructors} *)

val fields : ?author:Article.author -> ?title:string -> ?conf:string -> ?year:int -> unit -> t
val author_q : Article.author -> t
val title_q : string -> t
val conf_q : string -> t
val year_q : int -> t
val author_title : Article.author -> string -> t
val author_year : Article.author -> int -> t
val author_conf : Article.author -> string -> t
val conf_year : string -> int -> t
val conf_year_author : string -> int -> Article.author -> t
val msd : Article.t -> t

val author_last_prefix : string -> t
(** @raise Invalid_argument on an empty prefix. *)

(** {1 The QUERY interface} *)

val equal : t -> t -> bool
val compare : t -> t -> int
val to_string : t -> string
(* lint: allow X1 — Index.Make takes this module as its query argument *)
val pp : Format.formatter -> t -> unit
val covers : t -> t -> bool
(* lint: allow X1 — reached through the Query_sig functor argument (search pruning) *)
val compatible : t -> t -> bool
val generalizations : t -> t list
(** For a [Fields] query: drop one constraint, least selective first (year,
    then conference, then title, then author).  For an [Msd]: the full-field
    queries of each of its authors (the "drop the size" step). *)

(** {1 Application helpers} *)

val matches_article : t -> Article.t -> bool
(** Does the article's descriptor match the query?  Equivalent to
    [covers q (msd article)]. *)

(* lint: allow X1 — oracle: the XPath form the field-query semantics are checked against *)
val to_xpath : t -> Xpath.t
(** The equivalent XPath pattern.  [Xpath.to_string (to_xpath q)] equals
    [to_string q]. *)

val of_xpath_author_prefix : Xpath.t -> t option
(** Recognize the routed-prefix query shape: the single child-axis chain
    [/article/author/last/p*] compiles to [Author_last_prefix p].  [None]
    for every other pattern (extra predicates, descendant axes, wildcard
    or empty-prefix leaves).  Round-trips with {!to_xpath}:
    [of_xpath_author_prefix (to_xpath (author_last_prefix p))] is
    [Some (author_last_prefix p)]. *)

