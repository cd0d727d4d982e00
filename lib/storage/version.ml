(* Dotted version vectors for replicated index entries: a sorted
   association list from actor (node id) to a strictly positive event
   counter.  The sorted-list normal form makes structural equality,
   merge and comparison deterministic — two vectors describing the same
   causal history are the same OCaml value. *)

type t = (int * int) list

let zero = []

let rec well_formed = function
  | [] -> true
  | [ (a, n) ] -> a >= 0 && n > 0
  | (a, n) :: ((a', _) :: _ as rest) ->
      a >= 0 && n > 0 && a < a' && well_formed rest

let counter t ~actor =
  match List.assoc_opt actor t with Some n -> n | None -> 0

let bump_by t ~actor n =
  if actor < 0 then invalid_arg "Version.bump: negative actor";
  let rec go = function
    | [] -> [ (actor, n) ]
    | (a, c) :: rest ->
        if a = actor then (a, c + n) :: rest
        else if a > actor then (actor, n) :: (a, c) :: rest
        else (a, c) :: go rest
  in
  if n <= 0 then t else go t

let bump t ~actor = bump_by t ~actor 1

(* Pointwise max: the least upper bound of the two causal histories.
   Commutative, associative and idempotent — the qcheck laws pin this. *)
let merge a b =
  let rec go a b =
    match (a, b) with
    | [], rest | rest, [] -> rest
    | (xa, xn) :: xs, (ya, yn) :: ys ->
        if xa = ya then (xa, Stdlib.max xn yn) :: go xs ys
        else if xa < ya then (xa, xn) :: go xs b
        else (ya, yn) :: go a ys
  in
  go a b

type relation = Eq | Dominates | Dominated | Concurrent

(* One pass over the merged actor set, tracking whether each side has a
   component the other lacks; allocates nothing. *)
let compare a b =
  let rec go a_ahead b_ahead a b =
    match (a, b) with
    | [], [] -> (
        match (a_ahead, b_ahead) with
        | false, false -> Eq
        | true, false -> Dominates
        | false, true -> Dominated
        | true, true -> Concurrent)
    | _ :: _, [] -> go true b_ahead [] []
    | [], _ :: _ -> go a_ahead true [] []
    | (xa, xn) :: xs, (ya, yn) :: ys ->
        if xa = ya then
          go (a_ahead || xn > yn) (b_ahead || yn > xn) xs ys
        else if xa < ya then go true b_ahead xs b
        else go a_ahead true a ys
  in
  go false false a b

let equal a b = compare a b = Eq
let dots = List.length
let dominates_or_eq a b = match compare a b with Eq | Dominates -> true | _ -> false

let to_string t =
  let dot (a, n) = Printf.sprintf "%d:%d" a n in
  "{" ^ String.concat "," (List.map dot t) ^ "}"
