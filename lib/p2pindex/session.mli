(** Interactive search sessions (Section IV-B).

    "The lookup process can be interactive, i.e., the user directs the
    search and restricts its query at each step, or automated."  A session
    is the interactive mode: a cursor over the query-refinement graph that
    remembers where it has been, so a user interface can present the result
    set, descend into one of the more specific queries, back out, and keep
    every file discovered along the way. *)

module Make (Q : Query_sig.QUERY) (I : Index.S with type query = Q.t) : sig
  type position = {
    query : Q.t;
    options : Q.t list;  (** More specific queries offered at this step. *)
    file : I.file option;  (** Set when the query was a descriptor. *)
  }

  type t

  val start : I.t -> Q.t -> t
  (** Open a session at the given query: probes it once and seeds the trail.
      When the index carries a tracer, a trace rooted at the query is opened
      so the session's probes group under it. *)

  val finish : t -> unit
  (** Close the session's trace (a no-op without a tracer or when another
      session has already taken over the collector). *)

  val probe : t -> Q.t -> position
  (** One {!I.lookup_step}, billed as one interaction, recording any file
      discovered.  Exposed for drivers that manage their own trail. *)

  val current : t -> position
  (** The position the cursor is at (the trail is never empty). *)

  val options : t -> Q.t list
  (** The refinement choices offered at the current position. *)

  val file : t -> I.file option

  val at_dead_end : t -> bool
  (** No options and no file at the current position. *)

  val interactions : t -> int
  (** Billed user-system interactions so far. *)

  val discovered : t -> (Q.t * I.file) list
  (** Every file seen during the session, latest first, deduplicated. *)

  val depth : t -> int
  (** Trail length (1 right after {!start}). *)

  exception No_such_option

  val refine : t -> Q.t -> position
  (** Descend into one of the current options.
      @raise No_such_option when the query is not among them. *)

  val refine_nth : t -> int -> position
  (** Descend into the nth option (0-based).
      @raise No_such_option when out of range. *)

  val back : t -> position option
  (** Pop the trail: return to (and report) the previous position, or
      [None] when already at the session root. *)

  val trail : t -> Q.t list
  (** The queries visited, session root first. *)

  val explore_all : t -> (Q.t * I.file) list
  (** Expand every remaining option below the current position with
      {!I.search} (switching to the automated mode mid-session); returns
      the files found. *)
end
