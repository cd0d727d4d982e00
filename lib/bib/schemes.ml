module Q = Bib_query

type kind = Simple | Flat | Complex | Complex_ac | Prefix

let all = [ Simple; Flat; Complex ]

let label = function
  | Simple -> "Simple"
  | Flat -> "Flat"
  | Complex -> "Complex"
  | Complex_ac -> "Complex+AC"
  | Prefix -> "Prefix"

let of_label s =
  match String.lowercase_ascii s with
  | "simple" -> Some Simple
  | "flat" -> Some Flat
  | "complex" -> Some Complex
  | "complex+ac" | "complex-ac" -> Some Complex_ac
  | "prefix" -> Some Prefix
  | _ -> None

let edge parent child = { P2pindex.Scheme.parent; child }

(* Each scheme's edge builder takes the published descriptor [m] itself,
   so the index's renderer, which memoizes by identity, renders it once;
   the title query is built once for all the authors. *)
let simple_edges m (a : Article.t) =
  let title = Q.title_q a.title in
  let author_side =
    List.concat_map
      (fun x ->
        let at = Q.author_title x a.title in
        [ edge (Q.author_q x) at; edge title at; edge at m ])
      a.authors
  in
  let cy = Q.conf_year a.conf a.year in
  author_side @ [ edge (Q.conf_q a.conf) cy; edge (Q.year_q a.year) cy; edge cy m ]

let flat_edges m (a : Article.t) =
  let author_side =
    List.concat_map
      (fun x -> [ edge (Q.author_q x) m; edge (Q.author_title x a.title) m ])
      a.authors
  in
  author_side
  @ [
      edge (Q.title_q a.title) m;
      edge (Q.conf_q a.conf) m;
      edge (Q.year_q a.year) m;
      edge (Q.conf_year a.conf a.year) m;
    ]

let complex_edges ?(author_conf_index = false) m (a : Article.t) =
  let title = Q.title_q a.title in
  let author_side =
    List.concat_map
      (fun x ->
        let at = Q.author_title x a.title in
        [ edge (Q.author_q x) at; edge title at; edge at m ])
      a.authors
  in
  let cy = Q.conf_year a.conf a.year in
  (* The conference branch is split one level deeper: (conf, year) resolves
     to (conf, year, author) entries — the paper's "returns a list of
     queries that further indicate all the publication years" behaviour.
     Entries exist for every author so that any covering entry a user
     follows leads to the file.  The optional (author, conference)
     entry-point index (the Complex_ac variant) also feeds that level. *)
  let conf_side =
    [ edge (Q.conf_q a.conf) cy; edge (Q.year_q a.year) cy ]
    @ List.concat_map
        (fun x ->
          let cya = Q.conf_year_author a.conf a.year x in
          let base = [ edge cy cya; edge cya m ] in
          if author_conf_index then edge (Q.author_conf x a.conf) cya :: base else base)
        a.authors
  in
  author_side @ conf_side

let edges = function
  | Simple -> simple_edges
  | Flat -> flat_edges
  | Complex -> complex_edges ~author_conf_index:false
  | Complex_ac -> complex_edges ~author_conf_index:true
  (* The routed prefix scheme hashes the same chains as Simple; its prefix
     entry points are not hashed edges at all — they live in the
     order-preserving [Prefix.Prefix_index] and are routed by key range. *)
  | Prefix -> simple_edges

let scheme kind =
  let edges_of_msd = function
    | Q.Msd article as m -> edges kind m article
    | Q.Fields _ | Q.Author_last_prefix _ ->
        invalid_arg "Schemes.scheme: only descriptors can be published"
  in
  P2pindex.Scheme.make ~name:(label kind) ~edges:edges_of_msd

(* ------------------------------------------------------------------ *)

let first_author (a : Article.t) =
  match a.authors with
  | x :: _ -> x
  | [] -> assert false (* Article.make rejects empty author lists *)

(* The author a query mentions, falling back to the article's first author
   for queries without one (title-only chains can go through any author). *)
let chain_author (a : Article.t) (q : Q.t) =
  match q with
  | Q.Fields { author = Some x; _ } -> x
  | Q.Author_last_prefix p -> (
      (* The chain passes through an author with that prefix. *)
      match
        List.find_opt
          (fun (x : Article.author) ->
            String.length x.last >= String.length p
            && String.equal p (String.sub x.last 0 (String.length p)))
          a.authors
      with
      | Some x -> x
      | None -> first_author a)
  | Q.Fields _ | Q.Msd _ -> first_author a

let rec chain_to kind (a : Article.t) q =
  if not (Q.matches_article q a) then
    invalid_arg "Schemes.chain_to: query does not match the article";
  let m = Q.msd a in
  let x = chain_author a q in
  let at = Q.author_title x a.title in
  let cy = Q.conf_year a.conf a.year in
  let cya = Q.conf_year_author a.conf a.year x in
  let unindexed () =
    invalid_arg "Schemes.chain_to: query shape is not indexed by this scheme"
  in
  match q with
  | Q.Msd _ -> []
  | Q.Author_last_prefix _ ->
      (* Prefix entry points sit above the author index. *)
      Q.author_q x :: chain_to kind a (Q.author_q x)
  | Q.Fields { author; title; conf; year } -> (
      match kind with
      | Flat -> (
          (* Everything indexed points straight at the MSD. *)
          match (author, title, conf, year) with
          | Some _, None, None, None
          | None, Some _, None, None
          | Some _, Some _, None, None
          | None, None, Some _, None
          | None, None, None, Some _
          | None, None, Some _, Some _ ->
              [ m ]
          | _ -> unindexed ())
      | Simple | Prefix -> (
          match (author, title, conf, year) with
          | Some _, None, None, None | None, Some _, None, None -> [ at; m ]
          | Some _, Some _, None, None -> [ m ]
          | None, None, Some _, None | None, None, None, Some _ -> [ cy; m ]
          | None, None, Some _, Some _ -> [ m ]
          | _ -> unindexed ())
      | Complex | Complex_ac -> (
          match (author, title, conf, year) with
          | Some _, None, None, None | None, Some _, None, None -> [ at; m ]
          | Some _, Some _, None, None -> [ m ]
          | None, None, Some _, None | None, None, None, Some _ -> [ cy; cya; m ]
          | None, None, Some _, Some _ -> [ cya; m ]
          | Some _, None, Some _, None when kind = Complex_ac -> [ cya; m ]
          | _ -> unindexed ()))
