module Summary = struct
  (* Welford's online algorithm: numerically stable mean/variance without
     storing the observations. *)
  type t = {
    mutable count : int;
    mutable mean : float;
    mutable m2 : float;
    mutable total : float;
    mutable min : float;
    mutable max : float;
  }

  let create () =
    { count = 0; mean = 0.0; m2 = 0.0; total = 0.0; min = infinity; max = neg_infinity }

  let add t x =
    t.count <- t.count + 1;
    t.total <- t.total +. x;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.count);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let add_int t x = add t (float_of_int x)
  let count t = t.count
  let total t = t.total
  let mean t = if t.count = 0 then 0.0 else t.mean
  let variance t = if t.count = 0 then 0.0 else t.m2 /. float_of_int t.count
  let stddev t = sqrt (variance t)
  let min t = t.min
  let max t = t.max

  let merge a b =
    if a.count = 0 then { b with count = b.count }
    else if b.count = 0 then { a with count = a.count }
    else begin
      let count = a.count + b.count in
      let delta = b.mean -. a.mean in
      let mean = a.mean +. (delta *. float_of_int b.count /. float_of_int count) in
      let m2 =
        a.m2 +. b.m2
        +. (delta *. delta *. float_of_int a.count *. float_of_int b.count
            /. float_of_int count)
      in
      {
        count;
        mean;
        m2;
        total = a.total +. b.total;
        min = Float.min a.min b.min;
        max = Float.max a.max b.max;
      }
    end
end

module Histogram = struct
  type t = { lo : float; hi : float; counts : int array; mutable total : int }

  let create ~lo ~hi ~buckets =
    if buckets <= 0 then invalid_arg "Histogram.create: buckets must be positive";
    if hi <= lo then invalid_arg "Histogram.create: empty range";
    { lo; hi; counts = Array.make buckets 0; total = 0 }

  let index_of t x =
    let buckets = Array.length t.counts in
    let width = (t.hi -. t.lo) /. float_of_int buckets in
    let i = int_of_float (Float.floor ((x -. t.lo) /. width)) in
    if i < 0 then 0 else if i >= buckets then buckets - 1 else i

  let add t x =
    t.counts.(index_of t x) <- t.counts.(index_of t x) + 1;
    t.total <- t.total + 1

  let bucket_range t i =
    let buckets = Array.length t.counts in
    if i < 0 || i >= buckets then invalid_arg "Histogram.bucket_range: out of bounds";
    let width = (t.hi -. t.lo) /. float_of_int buckets in
    (t.lo +. (width *. float_of_int i), t.lo +. (width *. float_of_int (i + 1)))

  let count t i =
    if i < 0 || i >= Array.length t.counts then
      invalid_arg "Histogram.count: out of bounds";
    t.counts.(i)

  let total t = t.total
end

let percentile values p =
  let n = Array.length values in
  if n = 0 then invalid_arg "Stats.percentile: empty input";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy values in
  Array.sort compare sorted;
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then sorted.(lo)
  else
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)

let gini values =
  let n = Array.length values in
  if n = 0 then 0.0
  else begin
    let sorted = Array.copy values in
    Array.sort compare sorted;
    let total = Array.fold_left ( +. ) 0.0 sorted in
    if total <= 0.0 then 0.0
    else begin
      (* G = (2 sum_i i*x_i) / (n sum x) - (n + 1) / n with 1-based ranks
         over the ascending order. *)
      let weighted = ref 0.0 in
      Array.iteri (fun i x -> weighted := !weighted +. (float_of_int (i + 1) *. x)) sorted;
      (2.0 *. !weighted /. (float_of_int n *. total)) -. ((float_of_int n +. 1.0) /. float_of_int n)
    end
  end

let linear_fit points =
  let n = List.length points in
  if n < 2 then invalid_arg "Stats.linear_fit: need at least two points";
  let nf = float_of_int n in
  let sx = List.fold_left (fun acc (x, _) -> acc +. x) 0.0 points in
  let sy = List.fold_left (fun acc (_, y) -> acc +. y) 0.0 points in
  let sxx = List.fold_left (fun acc (x, _) -> acc +. (x *. x)) 0.0 points in
  let sxy = List.fold_left (fun acc (x, y) -> acc +. (x *. y)) 0.0 points in
  let denom = (nf *. sxx) -. (sx *. sx) in
  if Float.abs denom < 1e-12 then invalid_arg "Stats.linear_fit: degenerate x values";
  let slope = ((nf *. sxy) -. (sx *. sy)) /. denom in
  let intercept = (sy -. (slope *. sx)) /. nf in
  (slope, intercept)
