(* The end-to-end benchmark's command line: runs the chosen lanes over the
   chosen workloads, prints every metric with its unit and spread, writes
   the results file, and ends its output with one JSON line.  Exits 1
   when a check failed, 2 on a bad invocation.  See README.md in this
   directory. *)

module Json = Obs.Json
open E2e

let lanes_of = function
  | "e2e" -> [ Lanes.e2e ]
  | "counts" -> [ Lanes.counts ]
  | "trace" -> [ Lanes.trace ]
  | "all" -> [ Lanes.e2e; Lanes.counts; Lanes.trace ]
  | l -> raise (Arg.Bad ("unknown lane " ^ l))

let catalogue = Spec.e2e_names @ Spec.layer_names

(* The measured metrics, in catalogue order, each summarised. *)
let summaries (t : Lanes.t) =
  List.iter
    (fun (name, _) ->
      if not (List.mem name catalogue) then invalid_arg ("metric missing from Spec: " ^ name))
    t.samples;
  List.filter_map
    (fun name ->
      match Lanes.samples t name with
      | [] -> None
      | xs -> Some (name, xs, Stats.summarize xs))
    catalogue

let unit_of name = Option.get (Spec.find_unit name)

let print_workload (t : Lanes.t) ~elapsed sums =
  Printf.printf "== %s at %d seeds derived from %Ld (%.1f s)\n" t.w.name Lanes.sub_seeds
    t.settings.seed elapsed;
  List.iter
    (fun (name, _, (s : Stats.summary)) ->
      Printf.printf "  %-46s %14.6g %-10s" name s.median (unit_of name);
      if s.n > 1 then
        Printf.printf " median of %d (q1 %.6g, q3 %.6g, min %.6g, max %.6g)" s.n s.q1 s.q3 s.min
          s.max;
      print_newline ())
    sums;
  Printf.printf "  checks: %d run, %d failed\n" t.checks (List.length t.failures);
  List.iter (Printf.printf "  FAILED: %s\n") (List.rev t.failures);
  Printf.printf "  sessions: %d attempted, %d failed\n%!" t.attempted t.failed

let summary_json name xs (s : Stats.summary) =
  ( name,
    Json.Obj
      [
        ("unit", Json.String (unit_of name));
        ("median", Json.Float s.median);
        ("q1", Json.Float s.q1);
        ("q3", Json.Float s.q3);
        ("min", Json.Float s.min);
        ("max", Json.Float s.max);
        ("n", Json.Int s.n);
        ("samples", Json.List (List.map (fun x -> Json.Float x) xs));
      ] )

let workload_json (t : Lanes.t) sums =
  ( t.w.name,
    Json.Obj
      [
        ("correct", Json.Bool (t.failures = []));
        ("attempted", Json.Int t.attempted);
        ("failed", Json.Int t.failed);
        ("checks", Json.Int t.checks);
        ("failures", Json.List (List.rev_map (fun f -> Json.String f) t.failures));
        ("metrics", Json.Obj (List.map (fun (n, xs, s) -> summary_json n xs s) sums));
      ] )

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let () =
  let workload = ref "all" and seed = ref 42L and reps = ref 5 and seconds = ref 0.0 in
  let lane = ref "all" and trace = ref None and commit = ref "unknown" in
  let cli = ref "_build/default/bin/p2pindex_cli.exe" and out = ref "bench/e2e/out/results.json" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "W  one workload, or all (default)");
      ( "--seed",
        Arg.String
          (fun s ->
            match Int64.of_string_opt s with
            | Some n -> seed := n
            | None -> raise (Arg.Bad ("--seed: not an integer: " ^ s))),
        "S  the seed the workload seeds are derived from (default 42)" );
      ( "--reps",
        Arg.Set_int reps,
        "K  set-up runs, and rounds of every timed command at least (default 5)" );
      ( "--seconds",
        Arg.Set_float seconds,
        "T  keep sampling until T seconds have passed (default 0)" );
      ("--lane", Arg.Set_string lane, "L  e2e, counts, trace or all (default)");
      ( "--trace",
        Arg.Int (fun n -> trace := Some n),
        "0|1  0: the e2e lane, reporting end-to-end metrics; 1: the counts and trace lanes, \
         reporting per-layer metrics (overrides --lane)" );
      ("--cli", Arg.Set_string cli, "PATH  the p2pindex CLI (default " ^ !cli ^ ")");
      ("--out", Arg.Set_string out, "FILE  results file (default " ^ !out ^ ")");
      ("--commit", Arg.Set_string commit, "SHA  commit stamped into the results file");
    ]
  in
  let usage = "main.exe [options]: the end-to-end benchmark" in
  let fail msg =
    prerr_endline ("e2e: " ^ msg);
    exit 2
  in
  (try Arg.parse_argv Sys.argv specs (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage with
  | Arg.Bad msg -> fail msg
  | Arg.Help msg ->
      print_string msg;
      exit 0);
  let lanes =
    match !trace with
    | Some 0 -> [ Lanes.e2e ]
    | Some 1 -> [ Lanes.counts; Lanes.trace ]
    | Some n -> fail (Printf.sprintf "--trace must be 0 or 1 (got %d)" n)
    | None -> ( try lanes_of !lane with Arg.Bad msg -> fail msg)
  in
  let reported =
    match !trace with Some 0 -> Spec.e2e_names | Some _ -> Spec.layer_names | None -> catalogue
  in
  let workloads =
    if String.equal !workload "all" then Workloads.all
    else
      match Workloads.find !workload with
      | Some w -> [ w ]
      | None -> fail ("unknown workload " ^ !workload)
  in
  if !reps < 1 then fail "--reps must be at least 1";
  if not (Sys.file_exists !cli) then fail (!cli ^ " not found; build it with dune build");
  let out_dir = "bench/e2e/out" in
  mkdir_p out_dir;
  let settings =
    { Lanes.cli = !cli; out_dir; seed = !seed; reps = !reps; seconds = !seconds }
  in
  let runs = List.map (fun w -> (Lanes.create settings w, ref 0.0)) workloads in
  (* Lane by lane, so that every workload's e2e lane runs before any trace
     lane: the peak RSS wait4 reports for a child includes this process's
     own peak when it spawned the child, and the in-process traced replay
     raises that peak. *)
  List.iter
    (fun lane ->
      List.iter
        (fun (t, elapsed) ->
          let t0 = Spawn.now_s () in
          lane t;
          elapsed := !elapsed +. (Spawn.now_s () -. t0))
        runs)
    lanes;
  let results =
    List.map
      (fun (t, elapsed) ->
        let sums = summaries t in
        print_workload t ~elapsed:!elapsed sums;
        (t, sums))
      runs
  in
  mkdir_p (Filename.dirname !out);
  Out_channel.with_open_bin !out (fun oc ->
      Out_channel.output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("claim", Json.Null);
                ( "stamp",
                  Json.Obj
                    [
                      ("cores", Json.Int (Domain.recommended_domain_count ()));
                      ("ocaml", Json.String Sys.ocaml_version);
                      ("commit", Json.String !commit);
                      ("seed", Json.String (Int64.to_string !seed));
                      ("sub_seeds", Json.Int Lanes.sub_seeds);
                      ("reps", Json.Int !reps);
                      ("seconds", Json.Float !seconds);
                    ] );
                ("workloads", Json.Obj (List.map (fun (t, sums) -> workload_json t sums) results));
              ]));
      Out_channel.output_char oc '\n');
  let prefix (t : Lanes.t) name =
    if List.compare_length_with workloads 1 = 0 then name else t.w.name ^ "/" ^ name
  in
  let sum f = List.fold_left (fun acc (t, _) -> acc + f t) 0 results in
  let correct = List.for_all (fun ((t : Lanes.t), _) -> t.failures = []) results in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int (sum (fun t -> t.attempted)));
            ("failed", Json.Int (sum (fun t -> t.failed)));
            ( "metrics",
              Json.Obj
                (List.concat_map
                   (fun (t, sums) ->
                     List.filter_map
                       (fun (name, _, (s : Stats.summary)) ->
                         if List.mem name reported then
                           Some
                             ( prefix t name,
                               Json.Obj
                                 [ ("value", Json.Float s.median);
                                   ("unit", Json.String (unit_of name)) ] )
                         else None)
                       sums)
                   results) );
          ]));
  exit (if correct then 0 else 1)
