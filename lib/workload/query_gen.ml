module Article = Bib.Article
module Q = Bib.Bib_query

type structure =
  | Author
  | Title
  | Year
  | Author_title
  | Author_year
  | Author_conf
  | Author_prefix

let all_structures =
  [ Author; Title; Year; Author_title; Author_year; Author_conf; Author_prefix ]

let structure_label = function
  | Author -> "author"
  | Title -> "title"
  | Year -> "year"
  | Author_title -> "author+title"
  | Author_year -> "author+year"
  | Author_conf -> "author+conf"
  | Author_prefix -> "author-prefix"

type mix = {
  p_author : float;
  p_title : float;
  p_year : float;
  p_author_title : float;
  p_author_year : float;
  p_author_conf : float;
  p_author_prefix : float;
}

(* The BibFinder log has no author+conference class of its own; the weight
   exists for the scheme ablations.  Author-prefix (browsing/autocomplete)
   queries are likewise absent from the log and stay at zero except under
   the routed prefix scheme. *)
let bibfinder_mix =
  {
    p_author = 0.60;
    p_title = 0.20;
    p_year = 0.10;
    p_author_title = 0.05;
    p_author_year = 0.05;
    p_author_conf = 0.0;
    p_author_prefix = 0.0;
  }

(* The browsing workload of the prefix scheme: carve a share out of the
   author-only class (those are the users an autocomplete/browse interface
   serves) and leave every other class untouched. *)
let prefix_mix ?(share = 0.10) base =
  if share < 0.0 || share > base.p_author then
    invalid_arg "Query_gen.prefix_mix: share must be within [0, p_author]";
  {
    base with
    p_author = base.p_author -. share;
    p_author_prefix = base.p_author_prefix +. share;
  }

type event = { target : Article.t; structure : structure; query : Q.t }

type t = {
  articles : Article.t array;
  popularity : Stdx.Power_law.t;
  weights : (structure * float) list;
  prefix_len : int;
  prng : Stdx.Prng.t;
}

let paper_popularity ~article_count = Stdx.Power_law.fitted_cdf ~n:article_count ()

let create ?(mix = bibfinder_mix) ?popularity ?(prefix_len = 1) ~articles ~seed
    () =
  if Array.length articles = 0 then invalid_arg "Query_gen.create: empty corpus";
  if prefix_len < 1 then invalid_arg "Query_gen.create: prefix_len must be >= 1";
  let popularity =
    match popularity with
    | Some p -> p
    | None -> paper_popularity ~article_count:(Array.length articles)
  in
  if Stdx.Power_law.support popularity > Array.length articles then
    invalid_arg "Query_gen.create: popularity support exceeds the corpus";
  let weights =
    (* Structures with zero weight are simply never drawn. *)
    List.filter
      (fun (_, w) -> w > 0.0)
      [
        (Author, mix.p_author);
        (Title, mix.p_title);
        (Year, mix.p_year);
        (Author_title, mix.p_author_title);
        (Author_year, mix.p_author_year);
        (Author_conf, mix.p_author_conf);
        (Author_prefix, mix.p_author_prefix);
      ]
  in
  if weights = [] then invalid_arg "Query_gen.create: all structure weights are zero";
  { articles; popularity; weights; prefix_len; prng = Stdx.Prng.create ~seed }

(* Users search by the primary (first-listed) author, as bibliography
   interfaces display them; this also concentrates repeated queries on the
   same strings, which is what makes the caches effective in the paper. *)
let pick_author _t (article : Article.t) =
  match article.authors with
  | primary :: _ -> primary
  | [] -> assert false (* Article.make rejects empty author lists *)

let author_prefix t (article : Article.t) =
  let last = (pick_author t article).Article.last in
  Q.author_last_prefix
    (String.sub last 0 (Stdlib.min t.prefix_len (String.length last)))

let next t =
  let rank = Stdx.Power_law.sample t.popularity t.prng in
  let target = t.articles.(rank - 1) in
  let structure = Stdx.Prng.choose_weighted t.prng t.weights in
  let query =
    match structure with
    | Author -> Q.author_q (pick_author t target)
    | Title -> Q.title_q target.title
    | Year -> Q.year_q target.year
    | Author_title -> Q.author_title (pick_author t target) target.title
    | Author_year -> Q.author_year (pick_author t target) target.year
    | Author_conf -> Q.author_conf (pick_author t target) target.conf
    | Author_prefix -> author_prefix t target
  in
  { target; structure; query }

let events t n = List.init n (fun _ -> next t)
