(** Plain-text tables and bars for the benchmark harness output.

    The harness reproduces the paper's figures as text: grouped-bar figures
    (Figs. 11-14) become tables plus ASCII bars, and log-log scatter plots
    (Figs. 9, 15) become rank/value series. *)

val render_table : headers:string list -> rows:string list list -> string
(** Render an aligned table with a header separator.  Every row must have the
    same arity as [headers].  @raise Invalid_argument otherwise. *)

val print_table : headers:string list -> rows:string list list -> unit

val bar : width:int -> max_value:float -> float -> string
(** [bar ~width ~max_value v] is a proportional bar of at most [width] cells,
    e.g. ["#########"].  Negative values render empty; [max_value <= 0]
    renders empty bars. *)

val fmt_bytes : float -> string
(** Human-readable byte counts (B, KB, MB, GB with 1024 steps). *)

val fmt_pct : float -> string
(** [fmt_pct 0.37] is ["37.0%"] (fraction in, percent out). *)
