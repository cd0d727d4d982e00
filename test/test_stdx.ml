(* Tests for the deterministic PRNG, power-law samplers, statistics and the
   table renderer. *)

let prng_deterministic () =
  let a = Stdx.Prng.create ~seed:42L in
  let b = Stdx.Prng.create ~seed:42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Stdx.Prng.next_int64 a) (Stdx.Prng.next_int64 b)
  done

let prng_copy_independent () =
  let a = Stdx.Prng.create ~seed:7L in
  let _ = Stdx.Prng.next_int64 a in
  let b = Stdx.Prng.copy a in
  let va = Stdx.Prng.next_int64 a in
  let vb = Stdx.Prng.next_int64 b in
  Alcotest.(check int64) "copy continues the stream" va vb;
  (* Advancing the copy further must not disturb the original. *)
  let _ = Stdx.Prng.next_int64 b in
  let _ = Stdx.Prng.next_int64 b in
  let va2 = Stdx.Prng.next_int64 a in
  let a' = Stdx.Prng.create ~seed:7L in
  let _ = Stdx.Prng.next_int64 a' in
  let _ = Stdx.Prng.next_int64 a' in
  Alcotest.(check int64) "original unaffected by copy" (Stdx.Prng.next_int64 a') va2

let prng_split_differs () =
  let a = Stdx.Prng.create ~seed:1L in
  let b = Stdx.Prng.split a in
  let va = Stdx.Prng.next_int64 a in
  let vb = Stdx.Prng.next_int64 b in
  Alcotest.(check bool) "split streams differ" true (not (Int64.equal va vb))

let prng_int_bounds =
  QCheck.Test.make ~name:"Prng.int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let g = Stdx.Prng.create ~seed:(Int64.of_int seed) in
      let v = Stdx.Prng.int g bound in
      v >= 0 && v < bound)

let prng_int_in_range =
  QCheck.Test.make ~name:"Prng.int_in_range inclusive bounds" ~count:500
    QCheck.(triple small_int (int_range (-50) 50) (int_range 0 100))
    (fun (seed, lo, span) ->
      let hi = lo + span in
      let g = Stdx.Prng.create ~seed:(Int64.of_int seed) in
      let v = Stdx.Prng.int_in_range g ~lo ~hi in
      v >= lo && v <= hi)

let prng_unit_float_range =
  QCheck.Test.make ~name:"Prng.unit_float in [0,1)" ~count:500 QCheck.small_int
    (fun seed ->
      let g = Stdx.Prng.create ~seed:(Int64.of_int seed) in
      let v = Stdx.Prng.unit_float g in
      v >= 0.0 && v < 1.0)

let prng_int_rejects_zero () =
  let g = Stdx.Prng.create ~seed:3L in
  Alcotest.check_raises "bound 0 rejected" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Stdx.Prng.int g 0))

let prng_uniformity () =
  (* A chi-squared-flavoured sanity check: 10 buckets, 20k draws; each bucket
     should be within 10% of the expectation. *)
  let g = Stdx.Prng.create ~seed:99L in
  let counts = Array.make 10 0 in
  let draws = 20_000 in
  for _ = 1 to draws do
    let v = Stdx.Prng.int g 10 in
    counts.(v) <- counts.(v) + 1
  done;
  let expected = draws / 10 in
  Array.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket count %d near %d" c expected)
        true
        (abs (c - expected) < expected / 10))
    counts

let prng_choose_weighted () =
  let g = Stdx.Prng.create ~seed:5L in
  let counts = Hashtbl.create 3 in
  for _ = 1 to 10_000 do
    let x = Stdx.Prng.choose_weighted g [ ("a", 0.8); ("b", 0.15); ("c", 0.05) ] in
    Hashtbl.replace counts x (1 + Option.value ~default:0 (Hashtbl.find_opt counts x))
  done;
  let count k = Option.value ~default:0 (Hashtbl.find_opt counts k) in
  Alcotest.(check bool) "a dominates" true (count "a" > 7_500 && count "a" < 8_500);
  Alcotest.(check bool) "c is rare" true (count "c" > 250 && count "c" < 750)

let prng_shuffle_permutes () =
  let g = Stdx.Prng.create ~seed:11L in
  let a = Array.init 50 (fun i -> i) in
  Stdx.Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "shuffle is a permutation" (Array.init 50 (fun i -> i)) sorted

(* The oracle: SplitMix64 as the generator first shipped it, its state a
   boxed [int64] in a mutable field.  The unboxed generator must replay
   it draw for draw. *)
module Boxed_prng = struct
  type t = { mutable state : int64 }

  let create ~seed = { state = seed }
  let copy g = { state = g.state }

  let mix z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let next_int64 g =
    g.state <- Int64.add g.state 0x9E3779B97F4A7C15L;
    mix g.state

  let split g = create ~seed:(next_int64 g)
  let bits g = Int64.to_int (Int64.shift_right_logical (next_int64 g) 2)

  let int g bound =
    let rec draw () =
      let r = bits g in
      let v = r mod bound in
      if r - v > max_int - bound + 1 then draw () else v
    in
    draw ()

  let int_in_range g ~lo ~hi = lo + int g (hi - lo + 1)
  let unit_float g = Int64.to_float (Int64.shift_right_logical (next_int64 g) 11) *. 0x1p-53
  let float g bound = unit_float g *. bound

  let shuffle g a =
    for i = Array.length a - 1 downto 1 do
      let j = int g (i + 1) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done
end

type prng_op =
  | Next_int64
  | Int of int
  | Int_in_range of int * int
  | Unit_float
  | Float of float
  | Split
  | Copy
  | Shuffle of int

let show_prng_op = function
  | Next_int64 -> "next_int64"
  | Int b -> Printf.sprintf "int %d" b
  | Int_in_range (lo, hi) -> Printf.sprintf "int_in_range %d %d" lo hi
  | Unit_float -> "unit_float"
  | Float b -> Printf.sprintf "float %h" b
  | Split -> "split"
  | Copy -> "copy"
  | Shuffle n -> Printf.sprintf "shuffle %d" n

(* Bounds 1 and 256 (the key bytes), non-powers of two, and bounds near
   [max_int], where the rejection loop redraws often. *)
let prng_bound =
  QCheck.Gen.(
    oneof
      [
        oneofl [ 1; 2; 3; 256; 1000; 7919; 1_000_003 ];
        int_range 1 100_000;
        oneofl [ max_int; max_int - 1; (max_int / 2) + 1; (max_int / 3) * 2; max_int / 2 ];
        map (fun d -> max_int - d) (int_range 0 1_000_000);
      ])

let prng_op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, return Next_int64);
        (6, map (fun b -> Int b) prng_bound);
        (2, map2 (fun lo span -> Int_in_range (lo, lo + span)) (int_range (-1000) 1000) (int_range 0 5000));
        (3, return Unit_float);
        (2, map (fun b -> Float b) (float_range 0.0 1e6));
        (1, return Split);
        (1, return Copy);
        (1, map (fun n -> Shuffle n) (int_range 0 40));
      ])

(* Every operation on both generators side by side; a split or a copy
   compares the new generator's next draws, then the parents go on. *)
let prng_matches_oracle =
  QCheck.Test.make ~name:"Prng replays the boxed SplitMix64 oracle" ~count:300
    QCheck.(
      pair int64
        (make ~print:(QCheck.Print.list show_prng_op) (Gen.list_size (Gen.int_range 1 60) prng_op_gen)))
    (fun (seed, ops) ->
      let g = Stdx.Prng.create ~seed and o = Boxed_prng.create ~seed in
      let same_next g o = Int64.equal (Stdx.Prng.next_int64 g) (Boxed_prng.next_int64 o) in
      let same_children g o = same_next g o && same_next g o && Stdx.Prng.int g 1000 = Boxed_prng.int o 1000 in
      List.for_all
        (fun op ->
          match op with
          | Next_int64 -> same_next g o
          | Int b -> Stdx.Prng.int g b = Boxed_prng.int o b
          | Int_in_range (lo, hi) ->
              Stdx.Prng.int_in_range g ~lo ~hi = Boxed_prng.int_in_range o ~lo ~hi
          | Unit_float -> Float.equal (Stdx.Prng.unit_float g) (Boxed_prng.unit_float o)
          | Float b -> Float.equal (Stdx.Prng.float g b) (Boxed_prng.float o b)
          | Split -> same_children (Stdx.Prng.split g) (Boxed_prng.split o)
          | Copy -> same_children (Stdx.Prng.copy g) (Boxed_prng.copy o) && same_next g o
          | Shuffle n ->
              let a = Array.init n Fun.id and b = Array.init n Fun.id in
              Stdx.Prng.shuffle g a;
              Boxed_prng.shuffle o b;
              a = b)
        ops
      && same_next g o)

(* Re-seeding in place restarts the stream exactly as a fresh generator. *)
let prng_reseed_is_create =
  QCheck.Test.make ~name:"Prng.reseed = Prng.create" ~count:200
    QCheck.(triple int64 int64 (int_range 0 20))
    (fun (first, seed, burn) ->
      let g = Stdx.Prng.create ~seed:first in
      for _ = 1 to burn do
        ignore (Stdx.Prng.next_int64 g : int64)
      done;
      Stdx.Prng.reseed g ~seed;
      let fresh = Stdx.Prng.create ~seed in
      List.for_all
        (fun _ -> Int64.equal (Stdx.Prng.next_int64 g) (Stdx.Prng.next_int64 fresh))
        [ 1; 2; 3; 4 ])

let prng_argument_validation () =
  let g = Stdx.Prng.create ~seed:1L in
  Alcotest.check_raises "empty range" (Invalid_argument "Prng.int_in_range: empty range")
    (fun () -> ignore (Stdx.Prng.int_in_range g ~lo:5 ~hi:4));
  Alcotest.check_raises "empty array" (Invalid_argument "Prng.pick: empty array")
    (fun () -> ignore (Stdx.Prng.pick g ([||] : int array)));
  Alcotest.check_raises "empty list" (Invalid_argument "Prng.pick_list: empty list")
    (fun () -> ignore (Stdx.Prng.pick_list g ([] : int list)));
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Prng.choose_weighted: non-positive weight") (fun () ->
      ignore (Stdx.Prng.choose_weighted g [ ("a", -1.0) ]))

let power_law_validation () =
  Alcotest.check_raises "fitted n > 0"
    (Invalid_argument "Power_law.fitted_cdf: n must be positive") (fun () ->
      ignore (Stdx.Power_law.fitted_cdf ~n:0));
  Alcotest.check_raises "zipf n > 0" (Invalid_argument "Power_law.zipf: n must be positive")
    (fun () -> ignore (Stdx.Power_law.zipf ~s:1.0 ~n:(-1)));
  let t = Stdx.Power_law.zipf ~s:1.0 ~n:10 in
  Alcotest.(check int) "support" 10 (Stdx.Power_law.support t);
  Alcotest.(check (float 1e-9)) "probability outside support" 0.0
    (Stdx.Power_law.probability t 11);
  Alcotest.(check (float 1e-9)) "cdf below support" 0.0 (Stdx.Power_law.cdf t 0);
  Alcotest.(check (float 1e-9)) "cdf above support" 1.0 (Stdx.Power_law.cdf t 99)

let power_law_paper_pmf () =
  (* The paper's fitted model: the top-ranked article has CDF c = 0.063, so
     its probability is close to 0.063 after normalization. *)
  let t = Stdx.Power_law.fitted_cdf ~n:10_000 in
  let p1 = Stdx.Power_law.probability t 1 in
  Alcotest.(check bool) "p(1) near 0.063" true (Float.abs (p1 -. 0.063) < 0.002)

let power_law_cdf_monotone =
  QCheck.Test.make ~name:"Power_law cdf monotone" ~count:200
    QCheck.(pair (int_range 1 9_999) (int_range 1 100))
    (fun (i, step) ->
      let t = Stdx.Power_law.fitted_cdf ~n:10_000 in
      Stdx.Power_law.cdf t i <= Stdx.Power_law.cdf t (i + step) +. 1e-12)

let power_law_pmf_sums_to_one () =
  let t = Stdx.Power_law.fitted_cdf ~n:1_000 in
  let total = ref 0.0 in
  for i = 1 to 1_000 do
    total := !total +. Stdx.Power_law.probability t i
  done;
  Alcotest.(check bool) "pmf sums to 1" true (Float.abs (!total -. 1.0) < 1e-9)

let power_law_sample_in_support =
  QCheck.Test.make ~name:"Power_law.sample in support" ~count:500 QCheck.small_int
    (fun seed ->
      let t = Stdx.Power_law.zipf ~s:1.0 ~n:100 in
      let g = Stdx.Prng.create ~seed:(Int64.of_int seed) in
      let v = Stdx.Power_law.sample t g in
      v >= 1 && v <= 100)

let power_law_sample_skewed () =
  let t = Stdx.Power_law.fitted_cdf ~n:10_000 in
  let g = Stdx.Prng.create ~seed:123L in
  let top = ref 0 in
  let draws = 50_000 in
  for _ = 1 to draws do
    if Stdx.Power_law.sample t g = 1 then incr top
  done;
  let observed = float_of_int !top /. float_of_int draws in
  Alcotest.(check bool)
    (Printf.sprintf "rank-1 frequency %.4f near 0.063" observed)
    true
    (Float.abs (observed -. 0.063) < 0.01)

let power_law_ccdf_matches_paper () =
  (* F̄(i) = 1 - 0.063 i^0.3, checked at a few ranks before the clamp. *)
  let t = Stdx.Power_law.fitted_cdf ~n:10_000 in
  List.iter
    (fun i ->
      let expected = 1.0 -. (0.063 *. (float_of_int i ** 0.3)) in
      let actual = Stdx.Power_law.ccdf t i in
      Alcotest.(check bool)
        (Printf.sprintf "ccdf(%d) = %.4f vs paper %.4f" i actual expected)
        true
        (Float.abs (actual -. expected) < 0.01))
    [ 1; 10; 100; 1_000; 5_000 ]

let zipf_head_heavier_than_tail () =
  let t = Stdx.Power_law.zipf ~s:1.2 ~n:500 in
  Alcotest.(check bool) "p(1) > p(100)" true
    (Stdx.Power_law.probability t 1 > 10.0 *. Stdx.Power_law.probability t 100)

let summary_mean_variance () =
  let s = Stdx.Stats.Summary.create () in
  List.iter (Stdx.Stats.Summary.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stdx.Stats.Summary.mean s);
  Alcotest.(check (float 1e-9)) "variance" 4.0 (Stdx.Stats.Summary.variance s);
  Alcotest.(check (float 1e-9)) "stddev" 2.0 (Stdx.Stats.Summary.stddev s);
  Alcotest.(check (float 1e-9)) "min" 2.0 (Stdx.Stats.Summary.min s);
  Alcotest.(check (float 1e-9)) "max" 9.0 (Stdx.Stats.Summary.max s);
  Alcotest.(check int) "count" 8 (Stdx.Stats.Summary.count s)

let summary_merge_equals_union =
  QCheck.Test.make ~name:"Summary.merge = union stream" ~count:200
    QCheck.(pair (list (float_range (-100.) 100.)) (list (float_range (-100.) 100.)))
    (fun (xs, ys) ->
      QCheck.assume (xs <> [] && ys <> []);
      let a = Stdx.Stats.Summary.create () in
      let b = Stdx.Stats.Summary.create () in
      let u = Stdx.Stats.Summary.create () in
      List.iter (Stdx.Stats.Summary.add a) xs;
      List.iter (Stdx.Stats.Summary.add b) ys;
      List.iter (Stdx.Stats.Summary.add u) (xs @ ys);
      let m = Stdx.Stats.Summary.merge a b in
      Float.abs (Stdx.Stats.Summary.mean m -. Stdx.Stats.Summary.mean u) < 1e-6
      && Float.abs (Stdx.Stats.Summary.variance m -. Stdx.Stats.Summary.variance u) < 1e-6
      && Stdx.Stats.Summary.count m = Stdx.Stats.Summary.count u)

let summary_empty () =
  let s = Stdx.Stats.Summary.create () in
  Alcotest.(check (float 0.0)) "mean of empty" 0.0 (Stdx.Stats.Summary.mean s);
  Alcotest.(check (float 0.0)) "variance of empty" 0.0 (Stdx.Stats.Summary.variance s)

let percentile_basics () =
  let values = [| 15.0; 20.0; 35.0; 40.0; 50.0 |] in
  Alcotest.(check (float 1e-9)) "median" 35.0 (Stdx.Stats.percentile values 50.0);
  Alcotest.(check (float 1e-9)) "p0 = min" 15.0 (Stdx.Stats.percentile values 0.0);
  Alcotest.(check (float 1e-9)) "p100 = max" 50.0 (Stdx.Stats.percentile values 100.0)

let gini_cases () =
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Stdx.Stats.gini [||]);
  Alcotest.(check (float 1e-9)) "all zero" 0.0 (Stdx.Stats.gini [| 0.0; 0.0 |]);
  Alcotest.(check (float 1e-9)) "perfectly balanced" 0.0
    (Stdx.Stats.gini [| 5.0; 5.0; 5.0; 5.0 |]);
  (* One of four nodes carries everything: G = (n-1)/n = 0.75. *)
  Alcotest.(check (float 1e-9)) "maximally skewed" 0.75
    (Stdx.Stats.gini [| 0.0; 0.0; 0.0; 10.0 |]);
  let skewed = Stdx.Stats.gini [| 1.0; 2.0; 3.0; 10.0 |] in
  Alcotest.(check bool) "partial skew strictly between" true (skewed > 0.0 && skewed < 0.75)

let gini_bounded =
  QCheck.Test.make ~name:"gini in [0, 1)" ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_range 1 30) (float_range 0.0 100.0))
    (fun values ->
      let g = Stdx.Stats.gini (Array.of_list values) in
      g >= -1e-9 && g < 1.0)

let linear_fit_exact () =
  let slope, intercept = Stdx.Stats.linear_fit [ (0.0, 1.0); (1.0, 3.0); (2.0, 5.0) ] in
  Alcotest.(check (float 1e-9)) "slope" 2.0 slope;
  Alcotest.(check (float 1e-9)) "intercept" 1.0 intercept

let linear_fit_recovers_power_law () =
  (* Fit log p(i) against log i for a Zipf(s = 0.7): slope should be -0.7. *)
  let t = Stdx.Power_law.zipf ~s:0.7 ~n:1_000 in
  let points =
    List.init 100 (fun i ->
        let rank = (i * 10) + 1 in
        (log (float_of_int rank), log (Stdx.Power_law.probability t rank)))
  in
  let slope, _ = Stdx.Stats.linear_fit points in
  Alcotest.(check bool)
    (Printf.sprintf "slope %.3f near -0.7" slope)
    true
    (Float.abs (slope +. 0.7) < 0.02)

let histogram_buckets () =
  let h = Stdx.Stats.Histogram.create ~lo:0.0 ~hi:10.0 ~buckets:5 in
  List.iter (Stdx.Stats.Histogram.add h) [ 0.5; 1.0; 3.0; 9.9; 11.0; -1.0 ];
  Alcotest.(check int) "total" 6 (Stdx.Stats.Histogram.total h);
  Alcotest.(check int) "first bucket catches low outlier" 3 (Stdx.Stats.Histogram.count h 0);
  Alcotest.(check int) "last bucket catches high outlier" 2 (Stdx.Stats.Histogram.count h 4);
  let lo, hi = Stdx.Stats.Histogram.bucket_range h 1 in
  Alcotest.(check (float 1e-9)) "bucket lo" 2.0 lo;
  Alcotest.(check (float 1e-9)) "bucket hi" 4.0 hi

let table_rendering () =
  let rendered =
    Stdx.Tabular.render_table ~headers:[ "a"; "bb" ] ~rows:[ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  Alcotest.(check bool) "contains header" true
    (String.length rendered > 0
    && String.sub rendered 0 1 = "|"
    && String.length (String.concat "" (String.split_on_char '\n' rendered)) > 10)

let table_arity_checked () =
  Alcotest.check_raises "row arity mismatch"
    (Invalid_argument "Tabular.render_table: row arity mismatch") (fun () ->
      ignore (Stdx.Tabular.render_table ~headers:[ "a" ] ~rows:[ [ "1"; "2" ] ]))

let fmt_bytes_units () =
  Alcotest.(check string) "bytes" "512 B" (Stdx.Tabular.fmt_bytes 512.0);
  Alcotest.(check string) "kilobytes" "2.00 KB" (Stdx.Tabular.fmt_bytes 2048.0);
  Alcotest.(check string) "megabytes" "1.50 MB" (Stdx.Tabular.fmt_bytes (1.5 *. 1024.0 *. 1024.0))

(* --- Bitset and Int_buf: node liveness bits and replica scratch. --- *)

let expect_invalid what f =
  Alcotest.(check bool) what true
    (match f () with _ -> false | exception Invalid_argument _ -> true)

let bitset_bounds_checked () =
  let b = Stdx.Bitset.create ~len:10 ~default:true in
  Alcotest.(check int) "length" 10 (Stdx.Bitset.length b);
  Stdx.Bitset.set b 9 false;
  Alcotest.(check bool) "cleared bit" false (Stdx.Bitset.get b 9);
  Alcotest.(check bool) "neighbour untouched" true (Stdx.Bitset.get b 8);
  Stdx.Bitset.set b 9 true;
  Alcotest.(check bool) "set again" true (Stdx.Bitset.get b 9);
  expect_invalid "get past length" (fun () -> Stdx.Bitset.get b 10);
  expect_invalid "negative get" (fun () -> Stdx.Bitset.get b (-1));
  expect_invalid "set past length" (fun () -> Stdx.Bitset.set b 10 true);
  expect_invalid "negative length" (fun () -> Stdx.Bitset.create ~len:(-1) ~default:false)

let int_buf_growth () =
  let buf = Stdx.Int_buf.create ~capacity:2 () in
  for i = 0 to 9 do
    Stdx.Int_buf.push buf (i * i)
  done;
  Alcotest.(check int) "length" 10 (Stdx.Int_buf.length buf);
  Alcotest.(check int) "get" 81 (Stdx.Int_buf.get buf 9);
  Alcotest.(check (list int)) "to_list head" [ 0; 1; 4 ]
    (List.filteri (fun i _ -> i < 3) (Stdx.Int_buf.to_list buf));
  expect_invalid "get past length" (fun () -> Stdx.Int_buf.get buf 10);
  Stdx.Int_buf.clear buf;
  Alcotest.(check int) "cleared" 0 (Stdx.Int_buf.length buf)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "stdx:prng",
      [
        Alcotest.test_case "deterministic streams" `Quick prng_deterministic;
        Alcotest.test_case "copy is independent" `Quick prng_copy_independent;
        Alcotest.test_case "split differs" `Quick prng_split_differs;
        Alcotest.test_case "int rejects zero bound" `Quick prng_int_rejects_zero;
        Alcotest.test_case "near-uniform buckets" `Quick prng_uniformity;
        Alcotest.test_case "weighted choice frequencies" `Quick prng_choose_weighted;
        Alcotest.test_case "shuffle permutes" `Quick prng_shuffle_permutes;
        Alcotest.test_case "argument validation" `Quick prng_argument_validation;
      ]
      @ qcheck
          [
            prng_int_bounds;
            prng_int_in_range;
            prng_unit_float_range;
            prng_matches_oracle;
            prng_reseed_is_create;
          ] );
    ( "stdx:power_law",
      [
        Alcotest.test_case "paper pmf head" `Quick power_law_paper_pmf;
        Alcotest.test_case "validation and bounds" `Quick power_law_validation;
        Alcotest.test_case "pmf sums to one" `Quick power_law_pmf_sums_to_one;
        Alcotest.test_case "sampling matches pmf head" `Quick power_law_sample_skewed;
        Alcotest.test_case "ccdf matches paper formula" `Quick power_law_ccdf_matches_paper;
        Alcotest.test_case "zipf head heavy" `Quick zipf_head_heavier_than_tail;
      ]
      @ qcheck [ power_law_cdf_monotone; power_law_sample_in_support ] );
    ( "stdx:stats",
      [
        Alcotest.test_case "summary mean/variance" `Quick summary_mean_variance;
        Alcotest.test_case "summary empty" `Quick summary_empty;
        Alcotest.test_case "percentiles" `Quick percentile_basics;
        Alcotest.test_case "gini coefficient" `Quick gini_cases;
        Alcotest.test_case "linear fit exact" `Quick linear_fit_exact;
        Alcotest.test_case "linear fit recovers power law" `Quick linear_fit_recovers_power_law;
        Alcotest.test_case "histogram buckets" `Quick histogram_buckets;
      ]
      @ qcheck [ summary_merge_equals_union; gini_bounded ] );
    ( "stdx:tabular",
      [
        Alcotest.test_case "render table" `Quick table_rendering;
        Alcotest.test_case "arity checked" `Quick table_arity_checked;
        Alcotest.test_case "byte units" `Quick fmt_bytes_units;
      ] );
    ("stdx:bitset", [ Alcotest.test_case "bounds checked" `Quick bitset_bounds_checked ]);
    ("stdx:int_buf", [ Alcotest.test_case "int buffer" `Quick int_buf_growth ]);
  ]
