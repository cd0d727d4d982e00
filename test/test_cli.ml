(* The command-line surface: every rejected input exits 2 with a message,
   whether cmdliner rejects it while parsing or a subcommand rejects it
   while validating. *)

(* The CLI binary sits in the build tree beside the test binary. *)
let cli =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/p2pindex_cli.exe"

let exit_code args =
  Sys.command
    (Filename.quote_command cli args ~stdout:Filename.null ~stderr:Filename.null)

let usage_errors_exit_2 () =
  List.iter
    (fun args ->
      Alcotest.(check int) (String.concat " " args) 2 (exit_code ("simulate" :: args)))
    [
      [ "--queries"; "abc" ];
      [ "--policy"; "lru0" ];
      [ "--seed"; "x" ];
      (* Validation errors, for comparison: same status. *)
      [ "--loss-rate"; "1.5" ];
      (* Settings only the run's own validator used to catch, as an
         uncaught exception. *)
      [ "--churn-rate"; "0"; "--read-quorum"; "1"; "--anti-entropy-interval"; "5" ];
      [ "--churn-rate"; "0.01"; "--ttl"; "0" ];
      [ "--churn-rate"; "0.01"; "--republish"; "0" ];
      [ "--churn-rate"; "nan" ];
      [ "--churn-rate"; "0.01"; "--replication"; "0" ];
      [ "--loss-rate"; "0.1"; "--rpc-timeout"; "inf" ];
      [ "--latency"; "inf" ];
    ]

let help_exits_0 () =
  Alcotest.(check int) "simulate --help" 0 (exit_code [ "simulate"; "--help=plain" ])

let suite =
  [
    ( "cli:exit",
      [
        Alcotest.test_case "usage errors exit 2" `Quick usage_errors_exit_2;
        Alcotest.test_case "help exits 0" `Quick help_exits_0;
      ] );
  ]
