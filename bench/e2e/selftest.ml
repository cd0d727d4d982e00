(* The benchmark's self-test.  BENCHMARK.json (its path is the one
   argument) states the benchmark's workloads and metrics; the catalogue
   in [Spec] and the workloads in [Workloads] must state the same, every
   per-layer metric must name an end-to-end metric and workloads that
   exist, and the order statistics must agree with Python's [statistics]
   module, which an outside checker applies to the same samples. *)

open E2e
module Json = Obs.Json

let doc =
  lazy
    (match Json.of_string (In_channel.with_open_bin Sys.argv.(1) In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith ("BENCHMARK.json: " ^ e))

let field j k =
  match Json.member j k with Some v -> v | None -> Alcotest.failf "missing key %s" k

let entries k =
  match Json.to_list (field (Lazy.force doc) k) with
  | Some l -> l
  | None -> Alcotest.failf "%s is not a list" k

let str j k =
  match Json.to_str (field j k) with Some s -> s | None -> Alcotest.failf "%s is not a string" k

let num j k =
  match Json.to_float (field j k) with Some f -> f | None -> Alcotest.failf "%s is not a number" k

let keys j = match j with Json.Obj kvs -> List.map fst kvs | _ -> Alcotest.fail "not an object"
let names k = List.map (fun e -> str e "name") (entries k)
let sorted l = List.sort String.compare l
let strings = Alcotest.(list string)

let top_level () =
  let d = Lazy.force doc in
  Alcotest.check strings "keys"
    (sorted [ "command"; "paths"; "run_seconds"; "workloads"; "end_to_end"; "per_layer" ])
    (sorted (keys d));
  Alcotest.check strings "paths" [ "bench/e2e" ]
    (List.filter_map Json.to_str (entries "paths"));
  let seconds = num d "run_seconds" in
  Alcotest.(check bool) "run_seconds a whole number in [1, 60]" true
    (Float.is_integer seconds && seconds >= 1.0 && seconds <= 60.0)

let valid_name s =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let alnum = function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false in
  String.length s >= 1 && String.length s <= 64 && alnum s.[0] && String.for_all ok_char s

let name_rules () =
  let all = names "workloads" @ names "end_to_end" @ names "per_layer" in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " matches [A-Za-z0-9_.-]+") true (valid_name n))
    all;
  Alcotest.(check int) "names are unique" (List.length all)
    (List.length (List.sort_uniq String.compare all));
  List.iter
    (fun w ->
      let why = str w "why" in
      Alcotest.(check bool) (str w "name" ^ ": why is one line of at most 200 characters") true
        (String.length why <= 200 && not (String.contains why '\n')))
    (entries "workloads")

let caps () =
  let n k = List.length (entries k) in
  Alcotest.(check bool) "2 to 8 workloads" true (n "workloads" >= 2 && n "workloads" <= 8);
  Alcotest.(check bool) "1 to 16 end-to-end metrics" true (n "end_to_end" >= 1 && n "end_to_end" <= 16);
  Alcotest.(check bool) "1 to 128 per-layer metrics" true (n "per_layer" >= 1 && n "per_layer" <= 128);
  match List.find_opt (fun e -> String.equal (str e "name") "setup_s") (entries "end_to_end") with
  | None -> Alcotest.fail "setup_s is missing"
  | Some e ->
      Alcotest.(check string) "setup_s unit" "s" (str e "unit");
      Alcotest.(check string) "setup_s direction" "lower" (str e "better");
      List.iter
        (fun m ->
          Alcotest.(check bool) (str m "name" ^ " bound within (0, setup_s bound]") true
            (num m "bound" > 0.0 && num m "bound" <= num e "bound" && num m "bound" <= 0.25))
        (entries "end_to_end")

let catalogue_matches () =
  let metric e = (str e "name", str e "unit", str e "better") in
  let of_spec (m : Spec.metric) = (m.name, m.unit, Spec.better_label m.better) in
  let triple = Alcotest.(list (triple string string string)) in
  Alcotest.check triple "end-to-end metrics"
    (List.map (fun (e : Spec.e2e) -> of_spec e.metric) Spec.end_to_end)
    (List.map metric (entries "end_to_end"));
  Alcotest.(check (list (float 0.0))) "bounds"
    (List.map (fun (e : Spec.e2e) -> e.bound) Spec.end_to_end)
    (List.map (fun e -> num e "bound") (entries "end_to_end"));
  Alcotest.check triple "per-layer metrics"
    (List.map (fun (l : Spec.layer) -> of_spec l.layer) Spec.per_layer)
    (List.map metric (entries "per_layer"));
  Alcotest.(check (list (pair string string))) "workloads"
    (List.map (fun (w : Workloads.t) -> (w.name, w.why)) Workloads.all)
    (List.map (fun e -> (str e "name", str e "why")) (entries "workloads"));
  Alcotest.check strings "Spec.all_workloads" (names "workloads") Spec.all_workloads

let layer_map () =
  let e2e = names "end_to_end" and workloads = names "workloads" in
  List.iter
    (fun (l : Spec.layer) ->
      Alcotest.(check bool) (l.layer.name ^ " moves an end-to-end metric") true
        (List.mem l.moves e2e);
      List.iter
        (fun w -> Alcotest.(check bool) (l.layer.name ^ " on workload " ^ w) true (List.mem w workloads))
        l.on)
    Spec.per_layer

let pinned_digests () =
  List.iter
    (fun (w : Workloads.t) ->
      Alcotest.(check int) (w.name ^ " pins a SHA-1 digest") 40 (String.length w.digest_seed42))
    Workloads.all

let close = Alcotest.float 1e-9

(* Expected values from Python 3: statistics.quantiles(xs, n=4). *)
let quartiles () =
  let q xs = Stats.quartiles xs in
  let pair = Alcotest.pair close close in
  Alcotest.check pair "1..10" (2.75, 8.25) (q (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check pair "two samples extrapolate" (0.75, 2.25) (q [ 2.0; 1.0 ]);
  Alcotest.check pair "five samples" (1.5, 4.5) (q [ 5.0; 1.0; 4.0; 2.0; 3.0 ]);
  Alcotest.check pair "one sample" (7.0, 7.0) (q [ 7.0 ])

let median_and_percentiles () =
  Alcotest.check close "odd median" 3.0 (Stats.median [ 5.0; 1.0; 3.0 ]);
  Alcotest.check close "even median" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  let xs = Array.init 1001 float_of_int in
  Alcotest.check close "p99" 990.0 (Stdx.Stats.percentile xs 99.0);
  Alcotest.check close "p99.9" 999.0 (Stdx.Stats.percentile xs 99.9);
  let s = Stats.summarize [ 3.0; 1.0; 2.0 ] in
  Alcotest.(check (list close)) "summary" [ 2.0; 1.0; 3.0; 1.0; 3.0 ]
    [ s.median; s.min; s.max; s.q1; s.q3 ];
  Alcotest.(check int) "summary n" 3 s.n

let () =
  Alcotest.run ~argv:[| Sys.argv.(0) |] "e2e-bench"
    [
      ( "benchmark-json",
        [
          Alcotest.test_case "top-level keys" `Quick top_level;
          Alcotest.test_case "names" `Quick name_rules;
          Alcotest.test_case "caps and setup_s" `Quick caps;
          Alcotest.test_case "catalogue matches Spec" `Quick catalogue_matches;
          Alcotest.test_case "per-layer metric map" `Quick layer_map;
          Alcotest.test_case "pinned digests" `Quick pinned_digests;
        ] );
      ( "stats",
        [
          Alcotest.test_case "quartiles match Python" `Quick quartiles;
          Alcotest.test_case "median and percentiles" `Quick median_and_percentiles;
        ] );
    ]
