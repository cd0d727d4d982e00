(** The realistic user model of Section V-C.

    Two independent choices per query:
    - {e which} article is wanted: drawn from the power-law popularity
      fitted to the BibFinder/NetBib/CiteSeer observations
      (CCDF [F̄(i) = 1 − 0.063·i^0.3], Fig. 10);
    - {e how} it is asked for: the query-structure mix extracted from the
      BibFinder log (Fig. 7) — author only (0.60), title only (0.20), year
      only (0.10), author+title (0.05), author+year (0.05).

    The generated query always matches the chosen target article (users ask
    for something that exists); for multi-author articles the author field
    names the primary (first-listed) author, as bibliographic interfaces
    display them. *)

type structure =
  | Author
  | Title
  | Year
  | Author_title
  | Author_year
  | Author_conf
  | Author_prefix
      (** A last-name prefix query ([Smi*]) on the target's primary
          author — the browsing/autocomplete class the routed prefix
          scheme answers. *)

val all_structures : structure list
val structure_label : structure -> string

type mix = {
  p_author : float;
  p_title : float;
  p_year : float;
  p_author_title : float;
  p_author_year : float;
  p_author_conf : float;
      (** 0 in the paper's mix; used by the scheme ablations. *)
  p_author_prefix : float;
      (** 0 in the paper's mix; non-zero only for prefix-scheme runs. *)
}

val bibfinder_mix : mix
(** The paper's probabilities: 0.60 / 0.20 / 0.10 / 0.05 / 0.05. *)

val prefix_mix : ?share:float -> mix -> mix
(** [prefix_mix base] moves [share] (default 0.10) of probability mass
    from the author-only class into the author-prefix class, leaving all
    other classes untouched — the browsing workload of prefix-scheme
    runs.  @raise Invalid_argument unless [0 <= share <= base.p_author]. *)

type event = {
  target : Bib.Article.t;  (** The article the user is after. *)
  structure : structure;
  query : Bib.Bib_query.t;  (** Always satisfies [matches_article query target]. *)
}

type t

val create :
  ?mix:mix ->
  ?popularity:Stdx.Power_law.t ->
  ?prefix_len:int ->
  articles:Bib.Article.t array ->
  seed:int64 ->
  unit ->
  t
(** [create ~articles ~seed ()] uses the paper's fitted popularity over the
    articles' ranks and the BibFinder mix.  Articles are addressed by rank:
    element [i] of the array is rank [i+1].  [prefix_len] (default 1) is
    how many last-name characters an [Author_prefix] query keeps; it only
    matters when the mix gives that class weight.  Zero-weight structures
    are never drawn, so mixes that leave the new classes at zero generate
    byte-identical streams to the historical five-class generator.
    @raise Invalid_argument on an empty article array, a popularity law
    whose support exceeds the corpus, or [prefix_len < 1]. *)

val next : t -> event

val events : t -> int -> event list
(** The next [n] events. *)

val paper_popularity : article_count:int -> Stdx.Power_law.t
(** The fitted power law of Fig. 10 over [article_count] ranks. *)
