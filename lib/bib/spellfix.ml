type t = {
  authors : Fuzzy.Spell.t;
  titles : Fuzzy.Spell.t;
  venues : Fuzzy.Spell.t;
}

let of_corpus articles =
  let authors = Fuzzy.Spell.create () in
  let titles = Fuzzy.Spell.create () in
  let venues = Fuzzy.Spell.create () in
  Array.iter
    (fun (a : Article.t) ->
      List.iter (fun x -> Fuzzy.Spell.add authors (Article.author_to_string x)) a.authors;
      Fuzzy.Spell.add titles a.title;
      Fuzzy.Spell.add venues a.conf)
    articles;
  { authors; titles; venues }

type outcome = Unchanged | Corrected of Bib_query.t | Unfixable

type 'a field_fix = Ok_as_is | Fixed of 'a | Hopeless

let fix_string vocabulary value =
  if Fuzzy.Spell.mem vocabulary value then Ok_as_is
  else
    match Fuzzy.Spell.correct vocabulary value with
    | Some corrected -> Fixed corrected
    | None -> Hopeless

let fix_author vocabulary (a : Article.author) =
  match fix_string vocabulary (Article.author_to_string a) with
  | Ok_as_is -> Ok_as_is
  | Hopeless -> Hopeless
  | Fixed full -> (
      match String.index_opt full ' ' with
      | Some i ->
          Fixed
            {
              Article.first = String.sub full 0 i;
              last = String.sub full (i + 1) (String.length full - i - 1);
            }
      | None -> Hopeless)

let fix t query =
  match query with
  | Bib_query.Msd _ | Bib_query.Author_last_prefix _ -> Unchanged
  | Bib_query.Fields f -> (
      let changed = ref false in
      let apply fixer value =
        match value with
        | None -> Some None
        | Some v -> (
            match fixer v with
            | Ok_as_is -> Some (Some v)
            | Fixed v' ->
                changed := true;
                Some (Some v')
            | Hopeless -> None)
      in
      let author = apply (fix_author t.authors) f.Bib_query.author in
      let title = apply (fix_string t.titles) f.Bib_query.title in
      let conf = apply (fix_string t.venues) f.Bib_query.conf in
      match (author, title, conf) with
      | Some author, Some title, Some conf ->
          if !changed then
            Corrected (Bib_query.Fields { f with Bib_query.author; title; conf })
          else Unchanged
      | None, _, _ | _, None, _ | _, _, None -> Unfixable)
