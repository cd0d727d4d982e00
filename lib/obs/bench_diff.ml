type verdict = Regression | Improvement | Within | Missing | Added

type row = {
  name : string;
  baseline : float option;
  current : float option;
  delta : float option;
  threshold : float;
  verdict : verdict;
}

type result = {
  rows : row list;
  compared : int;
  regressions : int;
  improvements : int;
  missing : int;
  added : int;
}

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  m = 0 || go 0

(* Allocation accounting is deterministic for one binary but moves with
   compiler versions and stdlib changes, so it gets room; collection
   counts additionally wobble with heap-state phase, so they get more.
   The simulation's cost metrics are pure functions of the seed and must
   not move at all — the tight band is only float-formatting slack. *)
let is_collection_count name =
  contains name "/gc/minor_collections" || contains name "/gc/major_collections"

let default_threshold name =
  if is_collection_count name then 0.5
  else if contains name "/gc/" || contains name "_words_per_run" then 0.35
  else if contains name "wall_ns" || contains name "time_ns" then 0.25
  else 0.005

(* Relative change against a floor so a zero baseline still regresses the
   moment the metric moves. *)
let eps = 1e-9

let relative ~baseline ~current = (current -. baseline) /. Float.max (Float.abs baseline) eps

(* A collection count also gets one collection of absolute slack on top
   of its band: where a run's heap sits at a collection's edge, one more
   or one fewer is phase, not cost — a relative band alone would read
   0 -> 1 as unbounded. *)
let band name ~threshold ~baseline =
  if is_collection_count name then threshold +. (1.0 /. Float.max (Float.abs baseline) eps)
  else threshold

let compare_reports ?(threshold_for = default_threshold) ~(baseline : Bench_report.t)
    (current : Bench_report.t) =
  if
    baseline.scale.node_count <> current.scale.node_count
    || baseline.scale.article_count <> current.scale.article_count
    || baseline.scale.query_count <> current.scale.query_count
    || not (Int64.equal baseline.scale.seed current.scale.seed)
  then
    Error
      (Printf.sprintf
         "scale mismatch: baseline %d/%d/%d seed %Ld vs current %d/%d/%d seed %Ld — \
          reports are only comparable at the same scale"
         baseline.scale.node_count baseline.scale.article_count
         baseline.scale.query_count baseline.scale.seed current.scale.node_count
         current.scale.article_count current.scale.query_count current.scale.seed)
  else begin
    let base_metrics = Bench_report.flatten baseline in
    let cur_metrics = Bench_report.flatten current in
    let cur_tbl = Hashtbl.create 256 in
    List.iter
      (fun (m : Bench_report.metric) -> Hashtbl.replace cur_tbl m.name m)
      cur_metrics;
    let base_names = Hashtbl.create 256 in
    List.iter
      (fun (m : Bench_report.metric) -> Hashtbl.replace base_names m.name ())
      base_metrics;
    let paired =
      List.map
        (fun (b : Bench_report.metric) ->
          let threshold = threshold_for b.name in
          match Hashtbl.find_opt cur_tbl b.name with
          | None ->
              {
                name = b.name;
                baseline = Some b.value;
                current = None;
                delta = None;
                threshold;
                verdict = Missing;
              }
          | Some c ->
              let verdict, delta =
                match b.better with
                | Bench_report.Informational -> (Within, None)
                | Bench_report.Lower_better | Bench_report.Higher_better ->
                    let change = relative ~baseline:b.value ~current:c.value in
                    (* Direction-adjust: positive = worse. *)
                    let worse =
                      match b.better with
                      | Bench_report.Higher_better -> -.change
                      | Bench_report.Lower_better | Bench_report.Informational ->
                          change
                    in
                    let band = band b.name ~threshold ~baseline:b.value in
                    let verdict =
                      if worse > band then Regression
                      else if worse < -.band then Improvement
                      else Within
                    in
                    (verdict, Some worse)
              in
              {
                name = b.name;
                baseline = Some b.value;
                current = Some c.value;
                delta;
                threshold;
                verdict;
              })
        base_metrics
    in
    let added =
      List.filter_map
        (fun (c : Bench_report.metric) ->
          if Hashtbl.mem base_names c.name then None
          else
            Some
              {
                name = c.name;
                baseline = None;
                current = Some c.value;
                delta = None;
                threshold = threshold_for c.name;
                verdict = Added;
              })
        cur_metrics
    in
    let rows =
      List.sort (fun a b -> String.compare a.name b.name) (paired @ added)
    in
    let count v = List.length (List.filter (fun r -> r.verdict = v) rows) in
    Ok
      {
        rows;
        compared = List.length (List.filter (fun r -> r.delta <> None) rows);
        regressions = count Regression;
        improvements = count Improvement;
        missing = count Missing;
        added = count Added;
      }
  end

let ok r = r.regressions = 0 && r.missing = 0

let verdict_label = function
  | Regression -> "REGRESSION"
  | Improvement -> "improvement"
  | Within -> "within"
  | Missing -> "MISSING"
  | Added -> "added"

let fmt_value = function
  | None -> "-"
  | Some v ->
      if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
      else Printf.sprintf "%.6g" v

let render ?(all = false) r =
  let shown = if all then r.rows else List.filter (fun row -> row.verdict <> Within) r.rows in
  let table =
    if shown = [] then ""
    else
      Stdx.Tabular.render_table
        ~headers:[ "metric"; "baseline"; "current"; "delta"; "threshold"; "verdict" ]
        ~rows:
          (List.map
             (fun row ->
               [
                 row.name;
                 fmt_value row.baseline;
                 fmt_value row.current;
                 (match row.delta with
                 | None -> "-"
                 | Some d -> Printf.sprintf "%+.2f%%" (d *. 100.0));
                 Printf.sprintf "%.1f%%" (row.threshold *. 100.0);
                 verdict_label row.verdict;
               ])
             shown)
  in
  let summary =
    Printf.sprintf
      "benchdiff: %d compared, %d regressions, %d improvements, %d missing, %d added — %s\n"
      r.compared r.regressions r.improvements r.missing r.added
      (if ok r then "PASS" else "FAIL")
  in
  table ^ summary
