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
      (* A validation error, for comparison: same status. *)
      [ "--loss-rate"; "1.5" ];
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
