(* Both samplers precompute the CDF at every rank and sample by inverse
   transform with binary search: simple, exact, and fast enough (the largest
   support used by the simulations is 10,000 ranks). *)

type t = {
  n : int;
  cdf : float array; (* cdf.(i) = P(rank <= i + 1), normalized to end at 1. *)
}

let paper_c = 0.063
let paper_alpha = 0.3

let of_cdf_raw raw =
  let n = Array.length raw in
  if n = 0 then invalid_arg "Power_law: empty support";
  let total = raw.(n - 1) in
  if total <= 0.0 then invalid_arg "Power_law: degenerate distribution";
  let cdf = Array.map (fun v -> v /. total) raw in
  { n; cdf }

let fitted_cdf ~n =
  if n <= 0 then invalid_arg "Power_law.fitted_cdf: n must be positive";
  let raw =
    Array.init n (fun i ->
        let rank = float_of_int (i + 1) in
        Float.min 1.0 (paper_c *. (rank ** paper_alpha)))
  in
  (* The fitted CDF is monotone by construction; clamping at 1 keeps the tail
     flat, meaning ranks past the clamp point have probability 0, exactly as
     in the paper ("the remaining articles ... we can effectively neglect"). *)
  of_cdf_raw raw

let zipf ~s ~n =
  if n <= 0 then invalid_arg "Power_law.zipf: n must be positive";
  let acc = ref 0.0 in
  let raw =
    Array.init n (fun i ->
        let rank = float_of_int (i + 1) in
        acc := !acc +. (1.0 /. (rank ** s));
        !acc)
  in
  of_cdf_raw raw

let support t = t.n

let sample t g =
  let u = Prng.unit_float g in
  (* Smallest index i with cdf.(i) >= u. *)
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if t.cdf.(mid) >= u then search lo mid else search (mid + 1) hi
  in
  search 0 (t.n - 1) + 1

let cdf t i = if i < 1 then 0.0 else if i >= t.n then 1.0 else t.cdf.(i - 1)

let ccdf t i = 1.0 -. cdf t i

let probability t i =
  if i < 1 || i > t.n then 0.0 else cdf t i -. cdf t (i - 1)
