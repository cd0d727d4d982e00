(* Candidate generation by trigram overlap, verification by edit distance.
   The trigram index maps each character trigram (of the padded, lowercased
   string) to the known values containing it; a misspelling with distance d
   still shares most trigrams with its source, so collecting values that
   share enough trigrams yields a small, high-recall candidate set without
   scanning the vocabulary. *)

type t = {
  values : (string, string) Hashtbl.t; (* lowercased -> original *)
  trigrams : (string, string list ref) Hashtbl.t; (* trigram -> lowercased values *)
}

let create () = { values = Hashtbl.create 256; trigrams = Hashtbl.create 1024 }

let pad s = "\x01\x01" ^ s ^ "\x02"

let trigrams_of s =
  let padded = pad s in
  let n = String.length padded in
  if n < 3 then [ padded ]
  else List.init (n - 2) (fun i -> String.sub padded i 3) |> List.sort_uniq String.compare

let add t value =
  let key = String.lowercase_ascii value in
  if not (Hashtbl.mem t.values key) then begin
    Hashtbl.replace t.values key value;
    List.iter
      (fun trigram ->
        match Hashtbl.find_opt t.trigrams trigram with
        | Some bucket -> bucket := key :: !bucket
        | None -> Hashtbl.replace t.trigrams trigram (ref [ key ]))
      (trigrams_of key)
  end

let of_list values =
  let t = create () in
  List.iter (add t) values;
  t


let mem t value = Hashtbl.mem t.values (String.lowercase_ascii value)

(* Damerau-Levenshtein with two rolling rows plus one for transpositions. *)
let edit_distance a b =
  let la = String.length a and lb = String.length b in
  if la = 0 then lb
  else if lb = 0 then la
  else begin
    let prev2 = Array.make (lb + 1) 0 in
    let prev = Array.init (lb + 1) (fun j -> j) in
    let current = Array.make (lb + 1) 0 in
    for i = 1 to la do
      current.(0) <- i;
      for j = 1 to lb do
        let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
        let best =
          Stdlib.min
            (Stdlib.min (prev.(j) + 1) (current.(j - 1) + 1))
            (prev.(j - 1) + cost)
        in
        let best =
          if i > 1 && j > 1 && a.[i - 1] = b.[j - 2] && a.[i - 2] = b.[j - 1] then
            Stdlib.min best (prev2.(j - 2) + 1)
          else best
        in
        current.(j) <- best
      done;
      Array.blit prev 0 prev2 0 (lb + 1);
      Array.blit current 0 prev 0 (lb + 1)
    done;
    prev.(lb)
  end

let default_max_distance s = 1 + (String.length s / 4)

let suggest ?(limit = 5) t input =
  let key = String.lowercase_ascii input in
  match Hashtbl.find_opt t.values key with
  | Some original -> [ (original, 0) ]
  | None ->
      let max_distance = default_max_distance key in
      (* Count shared trigrams per candidate. *)
      let shared = Hashtbl.create 64 in
      List.iter
        (fun trigram ->
          match Hashtbl.find_opt t.trigrams trigram with
          | Some bucket ->
              List.iter
                (fun candidate ->
                  Hashtbl.replace shared candidate
                    (1 + Option.value ~default:0 (Hashtbl.find_opt shared candidate)))
                !bucket
          | None -> ())
        (trigrams_of key);
      (* A candidate within edit distance d shares at least
         |trigrams| - 3d trigrams; prune on that bound before the exact
         distance computation. *)
      let own_count = List.length (trigrams_of key) in
      let min_shared = Stdlib.max 1 (own_count - (3 * max_distance)) in
      let verified =
        Stdx.Det_tbl.fold_sorted ~compare:String.compare
          (fun candidate count acc ->
            if count >= min_shared then
              let d = edit_distance key candidate in
              if d <= max_distance then (candidate, d) :: acc else acc
            else acc)
          shared []
      in
      let sorted =
        List.sort
          (fun (a, da) (b, db) ->
            if da <> db then Int.compare da db else String.compare a b)
          verified
      in
      let rec take k = function
        | [] -> []
        | x :: rest -> if k = 0 then [] else x :: take (k - 1) rest
      in
      List.map (fun (c, d) -> (Hashtbl.find t.values c, d)) (take limit sorted)

let correct t input =
  match suggest ~limit:2 t input with
  | [] -> None
  | [ (best, _) ] -> Some best
  | (best, d1) :: (_, d2) :: _ -> if d1 < d2 then Some best else None
