type fields = {
  author : Article.author option;
  title : string option;
  conf : string option;
  year : int option;
}

type t = Fields of fields | Msd of Article.t | Author_last_prefix of string

let empty_fields = { author = None; title = None; conf = None; year = None }

let fields ?author ?title ?conf ?year () = Fields { author; title; conf; year }

let author_q a = Fields { empty_fields with author = Some a }
let title_q title = Fields { empty_fields with title = Some title }
let conf_q conf = Fields { empty_fields with conf = Some conf }
let year_q year = Fields { empty_fields with year = Some year }
let author_title a title = Fields { empty_fields with author = Some a; title = Some title }
let author_year a year = Fields { empty_fields with author = Some a; year = Some year }
let author_conf a conf = Fields { empty_fields with author = Some a; conf = Some conf }
let conf_year conf year = Fields { empty_fields with conf = Some conf; year = Some year }

let conf_year_author conf year a =
  Fields { empty_fields with conf = Some conf; year = Some year; author = Some a }

let msd article = Msd article

let author_last_prefix prefix =
  if String.equal prefix "" then invalid_arg "Bib_query.author_last_prefix: empty prefix";
  Author_last_prefix prefix

(* ------------------------------------------------------------------ *)
(* Structural comparison (fast path for sets and dedup). *)

let compare_fields f g =
  let compare_opt cmp a b =
    match (a, b) with
    | None, None -> 0
    | None, Some _ -> -1
    | Some _, None -> 1
    | Some x, Some y -> cmp x y
  in
  let c = compare_opt Article.compare_author f.author g.author in
  if c <> 0 then c
  else
    let c = compare_opt String.compare f.title g.title in
    if c <> 0 then c
    else
      let c = compare_opt String.compare f.conf g.conf in
      if c <> 0 then c else compare_opt Int.compare f.year g.year

let compare a b =
  match (a, b) with
  | Fields f, Fields g -> compare_fields f g
  | Fields _, (Msd _ | Author_last_prefix _) -> -1
  | Msd _, Fields _ -> 1
  | Msd x, Msd y -> Article.compare x y
  | Msd _, Author_last_prefix _ -> -1
  | Author_last_prefix _, (Fields _ | Msd _) -> 1
  | Author_last_prefix p, Author_last_prefix p' -> String.compare p p' 

let equal a b = compare a b = 0

let field_count f =
  let count opt = match opt with Some _ -> 1 | None -> 0 in
  count f.author + count f.title + count f.conf + count f.year

(* ------------------------------------------------------------------ *)
(* Canonical rendering: exactly the canonical form of the equivalent XPath
   pattern.  Predicates sort by their rendered strings; for article fields
   that is the fixed name order author < conf < size < title < year, with
   multiple author predicates ordered by their own rendering.  One
   predicate renders as a child step, several as a bracketed list.  The
   string is built in one pass, in a buffer each domain keeps for its own
   renders; only a multi-author descriptor renders its author predicates
   apart, to sort them. *)

let buffer = Domain.DLS.new_key (fun () -> Buffer.create 128)

let add_author b (a : Article.author) =
  Buffer.add_string b "author[first/";
  Buffer.add_string b a.first;
  Buffer.add_string b "][last/";
  Buffer.add_string b a.last;
  Buffer.add_char b ']'

let add_field b name v =
  Buffer.add_string b name;
  Buffer.add_char b '/';
  Buffer.add_string b v

(* [n] in decimal, as [Int.to_string] writes it, with no string made. *)
let rec add_digits b n =
  if n / 10 <> 0 then add_digits b (n / 10);
  Buffer.add_char b (Char.chr (Char.code '0' + abs (n mod 10)))

let add_int b n =
  if n < 0 then Buffer.add_char b '-';
  add_digits b n

let add_int_field b name n =
  Buffer.add_string b name;
  Buffer.add_char b '/';
  add_int b n

(* Opens predicate [i] of [count]. *)
let open_pred b ~count i =
  if count = 1 then Buffer.add_char b '/'
  else Buffer.add_string b (if i = 0 then "[" else "][")

let add_fields b f =
  let count = field_count f in
  let i =
    match f.author with
    | Some a ->
        open_pred b ~count 0;
        add_author b a;
        1
    | None -> 0
  in
  let i =
    match f.conf with
    | Some c ->
        open_pred b ~count i;
        add_field b "conf" c;
        i + 1
    | None -> i
  in
  let i =
    match f.title with
    | Some t ->
        open_pred b ~count i;
        add_field b "title" t;
        i + 1
    | None -> i
  in
  (match f.year with
  | Some y ->
      open_pred b ~count i;
      add_int_field b "year" y
  | None -> ());
  if count > 1 then Buffer.add_char b ']'

(* Always five or more predicates, so always bracketed.  Several author
   predicates are each rendered past the end of the buffer, read back
   and cut off again, then written in sorted order. *)
let add_msd b (article : Article.t) =
  (match article.authors with
  | [] -> Buffer.add_char b '['
  | [ a ] ->
      Buffer.add_char b '[';
      add_author b a;
      Buffer.add_string b "]["
  | authors ->
      let start = Buffer.length b in
      let author_pred a =
        add_author b a;
        let pred = Buffer.sub b start (Buffer.length b - start) in
        Buffer.truncate b start;
        pred
      in
      List.iter
        (fun pred ->
          Buffer.add_char b '[';
          Buffer.add_string b pred;
          Buffer.add_char b ']')
        (List.sort String.compare (List.map author_pred authors));
      Buffer.add_char b '[');
  add_field b "conf" article.conf;
  Buffer.add_string b "][";
  add_int_field b "size" article.size_bytes;
  Buffer.add_string b "][";
  add_field b "title" article.title;
  Buffer.add_string b "][";
  add_int_field b "year" article.year;
  Buffer.add_char b ']'

let to_string q =
  let b = Domain.DLS.get buffer in
  Buffer.clear b;
  Buffer.add_string b "/article";
  (match q with
  | Fields f -> add_fields b f
  | Msd article -> add_msd b article
  | Author_last_prefix p ->
      Buffer.add_string b "/author/last/";
      Buffer.add_string b p;
      Buffer.add_char b '*');
  Buffer.contents b

let pp ppf q = Format.pp_print_string ppf (to_string q)

let to_xpath q = Xpath.of_string (to_string q)

(* Structural recognizer for the routed-prefix shape: the single chain
   /article/author/last/p* with child axes throughout and a non-empty
   prefix leaf.  Anything else — extra predicates, descendant axes, a
   wildcard — is not a prefix entry point and returns None. *)
let of_xpath_author_prefix q =
  let chain_child node =
    match (Xpath.node_axis node, Xpath.node_children node) with
    | Xpath.Child, [ only ] -> Some only
    | (Xpath.Child | Xpath.Descendant), _ -> None
  in
  let named_step name node =
    match Xpath.node_test node with
    | Xpath.Name n when String.equal n name -> chain_child node
    | Xpath.Name _ | Xpath.Prefix _ | Xpath.Wildcard -> None
  in
  match Xpath.top_nodes q with
  | [ top ] -> (
      match
        Option.bind (named_step "article" top) (fun author ->
            Option.bind (named_step "author" author) (named_step "last"))
      with
      | Some leaf -> (
          match
            (Xpath.node_axis leaf, Xpath.node_test leaf, Xpath.node_children leaf)
          with
          | Xpath.Child, Xpath.Prefix p, [] when not (String.equal p "") ->
              Some (Author_last_prefix p)
          | _, (Xpath.Name _ | Xpath.Prefix _ | Xpath.Wildcard), _ -> None)
      | None -> None)
  | [] | _ :: _ -> None

(* ------------------------------------------------------------------ *)
(* Covering and compatibility. *)

let opt_covers equal constraint_ value =
  match constraint_ with None -> true | Some c -> ( match value with Some v -> equal c v | None -> false )

let fields_cover_fields f g =
  (* Every constraint of f must appear verbatim in g. *)
  opt_covers Article.author_equal f.author g.author
  && opt_covers String.equal f.title g.title
  && opt_covers String.equal f.conf g.conf
  && opt_covers Int.equal f.year g.year

let fields_cover_article f (article : Article.t) =
  (match f.author with
  | None -> true
  | Some a -> List.exists (Article.author_equal a) article.authors)
  && (match f.title with None -> true | Some t -> String.equal t article.title)
  && (match f.conf with None -> true | Some c -> String.equal c article.conf)
  && match f.year with None -> true | Some y -> y = article.year

let is_prefix p s =
  String.length p <= String.length s && String.equal p (String.sub s 0 (String.length p))

let article_has_last_prefix p (article : Article.t) =
  List.exists (fun (x : Article.author) -> is_prefix p x.last) article.authors

let covers general specific =
  match (general, specific) with
  | Fields f, Fields g -> fields_cover_fields f g
  | Fields f, Msd article -> fields_cover_article f article
  | Msd a, Msd b -> Article.equal a b
  | Msd _, (Fields _ | Author_last_prefix _) -> false
  | Author_last_prefix p, Fields { author = Some a; _ } -> is_prefix p a.Article.last
  | Author_last_prefix _, Fields _ -> false
  | Author_last_prefix p, Msd article -> article_has_last_prefix p article
  | Author_last_prefix p, Author_last_prefix p' -> is_prefix p p'
  | Fields f, Author_last_prefix _ ->
      (* Only the unconstrained query covers a prefix query. *)
      compare_fields f empty_fields = 0

let matches_article q article = covers q (Msd article)

let compatible a b =
  (* False only when no article can satisfy both.  Title, conference and
     year are single-valued, so differing constraints conflict; authors are
     multi-valued (co-authorship), so differing authors stay compatible. *)
  let conflict equal x y =
    match (x, y) with Some v, Some w -> not (equal v w) | None, _ | _, None -> false
  in
  match (a, b) with
  | Fields f, Fields g ->
      (not (conflict String.equal f.title g.title))
      && (not (conflict String.equal f.conf g.conf))
      && not (conflict Int.equal f.year g.year)
  | Fields f, Msd article | Msd article, Fields f -> fields_cover_article f article
  | Msd x, Msd y -> Article.equal x y
  | Author_last_prefix p, Msd article | Msd article, Author_last_prefix p ->
      article_has_last_prefix p article
  | Author_last_prefix _, Fields _ | Fields _, Author_last_prefix _ ->
      (* Authors are multi-valued: a differing author field never rules a
         prefix out. *)
      true
  | Author_last_prefix _, Author_last_prefix _ -> true

(* ------------------------------------------------------------------ *)

let generalizations = function
  | Author_last_prefix p ->
      if String.length p <= 1 then []
      else [ Author_last_prefix (String.sub p 0 (String.length p - 1)) ]
  | Msd article ->
      List.map
        (fun a ->
          Fields
            {
              author = Some a;
              title = Some article.title;
              conf = Some article.conf;
              year = Some article.year;
            })
        article.authors
  | Fields f ->
      (* Drop one constraint, least selective first. *)
      let drops =
        [
          (match f.year with Some _ -> Some (Fields { f with year = None }) | None -> None);
          (match f.conf with Some _ -> Some (Fields { f with conf = None }) | None -> None);
          (match f.title with Some _ -> Some (Fields { f with title = None }) | None -> None);
          (match f.author with
          | Some _ -> Some (Fields { f with author = None })
          | None -> None);
        ]
      in
      List.filter_map Fun.id drops
