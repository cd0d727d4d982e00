(* Collect in whatever order the buckets give us, then sort by key: the
   only unordered step never escapes this module. *)

let sorted_bindings ?(compare = Stdlib.compare) tbl =
  (* lint: allow unordered-iteration — bindings are sorted by key below *)
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let fold_sorted ?compare f tbl init =
  List.fold_left (fun acc (k, v) -> f k v acc) init (sorted_bindings ?compare tbl)

let iter_sorted ?compare f tbl =
  List.iter (fun (k, v) -> f k v) (sorted_bindings ?compare tbl)
