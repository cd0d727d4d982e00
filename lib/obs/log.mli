(** Structured event logging over [Logs], behind a verbosity flag.

    Subsystems report notable events (a run starting, an exporter writing a
    file, a routing failure) as a name plus JSON fields.  Events render as
    one line: [name key=value key=value].  Everything is emitted on a
    dedicated [Logs] source, silent by default — {!set_verbosity} turns it
    on, and the CLI's [--verbose] flag maps straight onto it. *)

type verbosity =
  | Quiet  (** No telemetry events (the default). *)
  | Events  (** Milestone events ([Logs.Info]). *)
  | Debug  (** Everything, including per-operation events ([Logs.Debug]). *)

val set_verbosity : verbosity -> unit

val enabled : ?debug:bool -> unit -> bool
(** Would {!event} (at the given level) be emitted right now?  Lets hot
    paths skip building the field list entirely. *)

val install_reporter : unit -> unit
(** Install a minimal stderr line reporter if the application has not set
    one ([Logs] discards everything without a reporter). *)

val event : ?debug:bool -> string -> (string * Json.t) list -> unit
(** [event name fields] logs at [Info] level, or [Debug] when [~debug:true]. *)
