(* Order statistics over a metric's samples. *)

let median xs = Stdx.Stats.percentile (Array.of_list xs) 50.0

(* Python's [statistics.quantiles xs ~n:4] with its default "exclusive"
   method, clamping and extrapolation included, so a spread printed here
   is the spread an outside checker computes from the same samples.  A
   single sample is both of its own quartiles. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quartiles: no samples"
  else if n = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = Stdlib.max 1 (Stdlib.min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)

type summary = {
  median : float;
  q1 : float;
  q3 : float;
  min : float;
  max : float;
  n : int;
}

let summarize xs =
  let q1, q3 = quartiles xs in
  {
    median = median xs;
    q1;
    q3;
    min = List.fold_left Float.min infinity xs;
    max = List.fold_left Float.max neg_infinity xs;
    n = List.length xs;
  }
