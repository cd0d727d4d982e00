(** Power-law (Zipf-like) distributions over integer ranks.

    The paper models article popularity by a power law fitted to the BibFinder
    query log: the complementary cumulative distribution function over the
    10,000 most popular articles is F̄(i) = 1 − 0.063·i^0.3 (Fig. 10), i.e. the
    CDF is F(i) = c·i^a with c = 0.063 and a = 0.3.  This module provides both
    that fitted CDF form and classic Zipf sampling for corpus generation. *)

type t
(** A sampler over ranks [1..n]. *)

val paper_c : float
(** The paper's fitted CDF coefficient, 0.063. *)

val paper_alpha : float
(** The paper's fitted CDF exponent, 0.3. *)

val fitted_cdf : n:int -> t
(** [fitted_cdf ~n] is the paper's popularity model over ranks [1..n]:
    CDF F(i) = min(1, c·i^alpha) with the fitted {!paper_c} and
    {!paper_alpha}, so the top rank is drawn with probability F(1) = c. *)

val zipf : s:float -> n:int -> t
(** [zipf ~s ~n] is a classic Zipf distribution: P(i) proportional to i^(-s)
    over ranks [1..n].  Used for corpus skew (author productivity). *)

val sample : t -> Prng.t -> int
(** Draw a rank in [1..n]. *)

val probability : t -> int -> float
(** [probability t i] is P(rank = i).  0 outside [1..n]. *)

(* lint: allow X1 — test view: the distribution the sampler inverts, checked monotone *)
val cdf : t -> int -> float
(** [cdf t i] is P(rank <= i). *)

val ccdf : t -> int -> float
(** [ccdf t i] is P(rank > i) = 1 − cdf(i). *)

val support : t -> int
(** Number of ranks n. *)
