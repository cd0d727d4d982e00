(** The three indexing schemes of Fig. 8.

    Each scheme maps an article's most specific descriptor to the set of
    query-to-query index entries to install:

    - {e Simple}: two hierarchies — author and title meet in an
      (author, title) index that points at the MSD; conference and year meet
      in a (conference, year) index that points at the MSD.
    - {e Flat}: every query of the simple scheme points directly at the MSD,
      so every index chain has length two.
    - {e Complex}: the simple scheme with the conference branch deepened —
      (conference, year) resolves to (conference, year, author) entries, so
      "a query specifying an author and a conference returns a list of
      queries that further indicate all the publication years"
      (Section V-B).
    - {e Complex_ac}: an extension of the complex scheme with an explicit
      (author, conference) entry-point index feeding the
      (conference, year, author) level.  Not part of the paper's measured
      trio; used by the ablation benches.
    - {e Prefix}: the routed prefix/range scheme.  Its hashed chains are
      identical to Simple; what changes is how [p*] entry points are
      answered — via the order-preserving [Prefix.Prefix_index] routed to
      the covering key range instead of hashed entry-point edges.  It
      serves Section IV-C's alphabetic browsing ("the files of an author
      that start with the letter A").

    Multi-author articles install the author-side entries once per author. *)

type kind = Simple | Flat | Complex | Complex_ac | Prefix

val all : kind list
(** The paper's measured trio: [Simple; Flat; Complex]. *)

val label : kind -> string
val of_label : string -> kind option
(** Case-insensitive; [None] for unknown labels. *)

val scheme : kind -> Bib_query.t P2pindex.Scheme.t

val chain_to : kind -> Article.t -> Bib_query.t -> Bib_query.t list
(** [chain_to kind article q] is the index path a user starting at [q]
    follows to reach the article, {e excluding} [q] itself and ending with
    the MSD — i.e. the successive queries selected at each interaction.
    @raise Invalid_argument when [q] does not match the article or is not an
    indexed query shape. *)
