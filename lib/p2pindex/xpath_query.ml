(** The generic XPath instance of {!Query_sig.QUERY}.

    [compatible] is the always-[true] conservative approximation: deciding
    whether two arbitrary tree patterns can match a common document needs a
    schema (is a field single-valued?), which generic XPath does not have.
    The search prunes less but stays complete.  Applications with structure
    knowledge (like {!Bib.Bib_query}) give precise answers. *)

type t = Xpath.t

let equal = Xpath.equal
let compare = Xpath.compare
let hash q = Hashtbl.hash (Xpath.to_string q)
let to_string = Xpath.to_string
let pp = Xpath.pp
let covers = Xpath.covers
let compatible _ _ = true
let generalizations = Xpath.generalizations
