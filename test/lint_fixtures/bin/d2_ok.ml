(* Fixture: commutative reductions are order-free, sorted iteration is not
   order-dependent at all. *)
let size tbl = Hashtbl.fold (fun _ _ acc -> acc + 1) tbl 0

let total tbl = Hashtbl.fold (fun _ n acc -> acc + n) tbl 0

let bindings tbl = Stdx.Det_tbl.sorted_bindings ~compare:String.compare tbl
