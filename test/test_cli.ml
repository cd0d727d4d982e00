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
      (* Counts and fractions out of range: no lookups, negative ones, a
         failure share outside [0, 1) or one that fails every node, and a
         negative print limit. *)
      [ "chord"; "--lookups"; "0" ];
      [ "chord"; "--lookups=-5" ];
      [ "chord"; "--fail"; "1.5" ];
      [ "chord"; "--nodes"; "1"; "--fail"; "0.5" ];
      [ "corpus"; "--articles"; "3"; "--limit=-1" ];
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

let sha1_of path =
  Hashing.Sha1.to_hex
    (Hashing.Sha1.digest_string (In_channel.with_open_bin path In_channel.input_all))

(* A command's stdout, pinned by SHA-1. *)
let check_stdout args ~stdout_sha1 =
  let stdout = Filename.temp_file "p2pindex_golden" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove stdout)
    (fun () ->
      Alcotest.(check int) "status" 0
        (Sys.command (Filename.quote_command cli args ~stdout ~stderr:Filename.null));
      Alcotest.(check string) "stdout SHA-1" stdout_sha1 (sha1_of stdout))

(* A [simulate] run's stdout and its metrics snapshot, pinned by SHA-1. *)
let golden args ~stdout_sha1 ~metrics_sha1 () =
  (* The snapshot's run prints where it wrote it, so stdout comes from a
     run of its own. *)
  check_stdout args ~stdout_sha1;
  let metrics = Filename.temp_file "p2pindex_golden" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove metrics)
    (fun () ->
      Alcotest.(check int) "status with --metrics-out" 0
        (Sys.command
           (Filename.quote_command cli
              (args @ [ "--metrics-out"; metrics ])
              ~stdout:Filename.null ~stderr:Filename.null));
      Alcotest.(check string) "metrics snapshot SHA-1" metrics_sha1 (sha1_of metrics))

(* The soft-state path end to end, through the CLI: churn with
   crash-stop failures paused by the quorum block, five republish rounds
   replaying the publication plan, eight anti-entropy rounds shipping
   entries, entries expiring, lossy RPC with retries. *)
let soft_state_golden =
  golden
    [ "simulate"; "--nodes"; "120"; "--articles"; "300"; "--queries"; "2000";
      "--substrate"; "chord"; "--churn-rate"; "0.02"; "--replication"; "3";
      "--republish"; "8"; "--ttl"; "20"; "--read-quorum"; "2"; "--write-quorum"; "2";
      "--anti-entropy-interval"; "5"; "--loss-rate"; "0.05"; "--latency"; "0.01";
      "--rpc-retries"; "2"; "--seed"; "7" ]
    ~stdout_sha1:"4e5cbc4d6b7434397de34d9e2449eee96fa08b53"
    ~metrics_sha1:"e78bd1854100aa18bd0c3c0a10ae89edb3ef1eaf"

(* Hard state under churn: nothing expires, and republish rounds give
   nodes that rejoined empty their entries back. *)
let hard_state_golden =
  golden
    [ "simulate"; "--nodes"; "100"; "--articles"; "500"; "--queries"; "2000";
      "--churn-rate"; "0.02"; "--ttl"; "inf"; "--republish"; "10"; "--replication"; "2";
      "--seed"; "3" ]
    ~stdout_sha1:"f6ca3504fe0c70cce159d5c1a70fcb7b3b0d9237"
    ~metrics_sha1:"a5e3161732ed3ff4f8502b90ad227d3dc347eea2"

(* Two experiments whose tables rest on fixed settings: the fault sweep
   on the RPC layer's retries and hedge delay, the churn ablation on its
   session and downtime draws.  (A change to the backoff jitter shows in
   the soft-state run above, not in the sweep.) *)
let fault_sweep_golden () =
  check_stdout [ "experiment"; "--quick"; "fault-sweep" ]
    ~stdout_sha1:"bebc9923fd8708104f5d7ca9532066bc6d747a98"

let ablation_churn_golden () =
  check_stdout [ "experiment"; "--quick"; "ablation-churn" ]
    ~stdout_sha1:"f4f05e1f30ff568bca9a4f683af6cbb7fa1e3423"

let suite =
  [
    ( "cli:exit",
      [
        Alcotest.test_case "usage errors exit 2" `Quick usage_errors_exit_2;
        Alcotest.test_case "help exits 0" `Quick help_exits_0;
        Alcotest.test_case "unreadable trace exits 1" `Quick unreadable_trace_exits_1;
        Alcotest.test_case "unwritable output exits 1" `Quick unwritable_output_exits_1;
      ] );
    ( "cli:golden",
      [
        Alcotest.test_case "soft-state run" `Quick soft_state_golden;
        Alcotest.test_case "hard-state run" `Quick hard_state_golden;
        Alcotest.test_case "fault-sweep experiment" `Quick fault_sweep_golden;
        Alcotest.test_case "ablation-churn experiment" `Quick ablation_churn_golden;
      ] );
  ]
