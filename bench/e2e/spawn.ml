(* One child process, timed from spawn to reap, with the resource usage
   only wait4 reports. *)

external wait4 : int -> int * float * float * int = "e2e_wait4"

type result = {
  status : int;  (** Exit code; minus the signal number if one killed it. *)
  wall_s : float;
  cpu_s : float;  (** User plus system time. *)
  peak_rss_mb : float;
  stdout : string;
}

let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

(* [run ~stdout_path prog args] runs [prog args] with its standard output
   captured in [stdout_path] (read back afterwards) and its standard error
   passed through. *)
let run ~stdout_path prog args =
  let fd =
    Unix.openfile stdout_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let t0 = now_s () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin fd Unix.stderr)
  in
  let status, user_s, sys_s, maxrss_kib = wait4 pid in
  let wall_s = now_s () -. t0 in
  {
    status;
    wall_s;
    cpu_s = user_s +. sys_s;
    peak_rss_mb = float_of_int maxrss_kib /. 1024.0;
    stdout = In_channel.with_open_bin stdout_path In_channel.input_all;
  }
