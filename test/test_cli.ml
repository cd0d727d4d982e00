(* The command-line surface: every rejected input exits 2 with a message,
   whether cmdliner rejects it while parsing or a subcommand rejects it
   while validating; an input file that cannot be read exits 1. *)

(* The CLI binary sits in the build tree beside the test binary. *)
let cli =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/p2pindex_cli.exe"

let exit_code args =
  Sys.command
    (Filename.quote_command cli args ~stdout:Filename.null ~stderr:Filename.null)

let usage_errors_exit_2 () =
  List.iter
    (fun args -> Alcotest.(check int) (String.concat " " args) 2 (exit_code args))
    [
      [ "simulate"; "--queries"; "abc" ];
      [ "simulate"; "--policy"; "lru0" ];
      [ "simulate"; "--seed"; "x" ];
      (* Validation errors, for comparison: same status. *)
      [ "simulate"; "--loss-rate"; "1.5" ];
      (* Settings only the run's own validator used to catch, as an
         uncaught exception. *)
      [ "simulate"; "--churn-rate"; "0"; "--read-quorum"; "1"; "--anti-entropy-interval"; "5" ];
      [ "simulate"; "--churn-rate"; "0.01"; "--ttl"; "0" ];
      [ "simulate"; "--churn-rate"; "0.01"; "--republish"; "0" ];
      [ "simulate"; "--churn-rate"; "nan" ];
      [ "simulate"; "--churn-rate"; "0.01"; "--replication"; "0" ];
      [ "simulate"; "--loss-rate"; "0.1"; "--rpc-timeout"; "inf" ];
      [ "simulate"; "--latency"; "inf" ];
      (* Run options, checked by Sharded.validate before anything is
         built. *)
      [ "simulate"; "--concurrency"; "0" ];
      [ "simulate"; "--coalesce" ];
      [ "simulate"; "--shards"; "0" ];
      [ "simulate"; "--domains"; "0" ];
      [ "simulate"; "--shards"; "600"; "--nodes"; "500" ];
      [ "simulate"; "--shards"; "2"; "--trace-out"; "t.jsonl" ];
      [ "simulate"; "--shards"; "4"; "--domains"; "2"; "--profile-phases" ];
      [ "simulate"; "--shards"; "4"; "--nodes"; "8"; "--churn-rate"; "0.01"; "--replication"; "3" ];
      (* Sizes below 1, rejected by the shared positive-integer flags
         before the library sees them. *)
      [ "search"; "--nodes"; "0" ];
      [ "search"; "--nodes=-3" ];
      [ "search"; "--articles"; "0" ];
      [ "corpus"; "--articles=-4" ];
      [ "workload"; "--articles"; "0" ];
      [ "workload"; "--queries=-2" ];
      [ "workload"; "--queries"; "0" ];
      [ "chord"; "--nodes"; "0" ];
      (* Output files in a missing directory, rejected before the run
         rather than after it. *)
      [ "simulate"; "--metrics-out"; "/nonexistent/x.prom" ];
      [ "simulate"; "--trace-out"; "/nonexistent/t.jsonl" ];
      [ "workload"; "--out"; "/nonexistent/t.jsonl" ];
    ]

(* An output file that passes those checks but still cannot be written —
   here a directory stands where the file would go — exits 1 naming it. *)
let unwritable_output_exits_1 () =
  let dir = Filename.temp_dir "p2pindex_out" ".prom" in
  Fun.protect
    ~finally:(fun () -> Sys.rmdir dir)
    (fun () ->
      List.iter
        (fun (cmd, args) ->
          let stderr = Filename.temp_file "p2pindex_stderr" ".txt" in
          Fun.protect
            ~finally:(fun () -> Sys.remove stderr)
            (fun () ->
              let status =
                Sys.command
                  (Filename.quote_command cli (cmd :: args) ~stdout:Filename.null ~stderr)
              in
              Alcotest.(check int) (cmd ^ ": status") 1 status;
              let message = In_channel.with_open_text stderr In_channel.input_all in
              let prefix = cmd ^ ": cannot write " ^ dir ^ ": " in
              Alcotest.(check string) (cmd ^ ": message") prefix
                (String.sub message 0 (min (String.length prefix) (String.length message)))))
        [
          ( "simulate",
            [ "--nodes"; "20"; "--articles"; "50"; "--queries"; "10"; "--metrics-out"; dir ] );
          ("workload", [ "--queries"; "3"; "--out"; dir ]);
        ])

(* A replay trace that does not load — a malformed line, or no queries at
   all — is an unreadable input file: exit 1, with a message naming it. *)
let unreadable_trace_exits_1 () =
  List.iter
    (fun (what, contents) ->
      let trace = Filename.temp_file "p2pindex_trace" ".tsv" in
      let stderr = Filename.temp_file "p2pindex_stderr" ".txt" in
      Fun.protect
        ~finally:(fun () -> Sys.remove trace; Sys.remove stderr)
        (fun () ->
          Out_channel.with_open_text trace (fun oc -> output_string oc contents);
          let status =
            Sys.command
              (Filename.quote_command cli
                 [ "simulate"; "--nodes"; "20"; "--articles"; "50"; "--trace"; trace ]
                 ~stdout:Filename.null ~stderr)
          in
          Alcotest.(check int) (what ^ ": status") 1 status;
          let message = In_channel.with_open_text stderr In_channel.input_all in
          let prefix = "simulate: cannot read " ^ trace ^ ": " in
          Alcotest.(check string) (what ^ ": message") prefix
            (String.sub message 0 (min (String.length prefix) (String.length message)))))
    [ ("malformed line", "not a trace line\n"); ("empty file", "") ]

let help_exits_0 () =
  Alcotest.(check int) "simulate --help" 0 (exit_code [ "simulate"; "--help=plain" ])

let suite =
  [
    ( "cli:exit",
      [
        Alcotest.test_case "usage errors exit 2" `Quick usage_errors_exit_2;
        Alcotest.test_case "help exits 0" `Quick help_exits_0;
        Alcotest.test_case "unreadable trace exits 1" `Quick unreadable_trace_exits_1;
        Alcotest.test_case "unwritable output exits 1" `Quick unwritable_output_exits_1;
      ] );
  ]
