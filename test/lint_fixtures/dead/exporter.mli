val used : int
val only_here : int
val unused : int
(* lint: allow X1 — reached only through a functor argument *)
val suppressed : int

module Inner : sig
  val deep_used : int
  val deep_unused : int
end
