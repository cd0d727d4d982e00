(** Interactive search sessions (Section IV-B).

    "The lookup process can be interactive, i.e., the user directs the
    search and restricts its query at each step, or automated."  A session
    is the interactive mode: a cursor over the query-refinement graph that
    remembers where it has been, so a user interface can present the result
    set, descend into one of the more specific queries, back out, and keep
    every file discovered along the way. *)

module Make (Q : Query_sig.QUERY) (I : Index.S with type query = Q.t) = struct
  type position = {
    query : Q.t;
    options : Q.t list;  (** More specific queries offered at this step. *)
    file : I.file option;  (** Set when the query was a descriptor. *)
  }

  type t = {
    index : I.t;
    mutable trail : position list;  (** Current position first. *)
    mutable interactions : int;
    mutable discovered : (Q.t * I.file) list;  (** Files seen, latest first. *)
  }

  (* Each user move is one lookup step against the index. *)
  let probe t query =
    t.interactions <- t.interactions + 1;
    match I.lookup_step t.index query with
    | I.File file ->
        if not (List.exists (fun (q, _) -> Q.equal q query) t.discovered) then
          t.discovered <- (query, file) :: t.discovered;
        { query; options = []; file = Some file }
    | I.Children children -> { query; options = children; file = None }
    | I.Not_indexed -> { query; options = []; file = None }

  let start index query =
    (* Each session is one lookup chain: open a trace so the probes below
       group under it (any previous open trace is finished first). *)
    Option.iter
      (fun tracer -> Obs.Trace.begin_trace tracer ~root:(Q.to_string query))
      (I.tracer index);
    let t = { index; trail = []; interactions = 0; discovered = [] } in
    t.trail <- [ probe t query ];
    t

  (** Close the session's trace (a no-op without a tracer or when another
      session has already taken over the collector). *)
  let finish t = Option.iter Obs.Trace.end_trace (I.tracer t.index)

  let current t =
    match t.trail with
    | position :: _ -> position
    | [] -> invalid_arg "Session: empty trail" (* unreachable: start seeds it *)

  let options t = (current t).options

  let file t = (current t).file

  let at_dead_end t =
    let position = current t in
    position.options = [] && position.file = None

  let interactions t = t.interactions

  let discovered t = t.discovered

  let depth t = List.length t.trail

  exception No_such_option

  let refine t choice =
    let position = current t in
    if not (List.exists (Q.equal choice) position.options) then raise No_such_option;
    let next = probe t choice in
    t.trail <- next :: t.trail;
    next

  let refine_nth t n =
    let position = current t in
    match List.nth_opt position.options n with
    | Some choice -> refine t choice
    | None -> raise No_such_option

  let back t =
    match t.trail with
    | _ :: (previous :: _ as rest) ->
        t.trail <- rest;
        Some previous
    | [ _ ] | [] -> None

  let trail t = List.rev_map (fun position -> position.query) t.trail

  (** Expand every remaining option below the current position (switching to
      the automated mode mid-session); returns the files found. *)
  let explore_all t =
    let position = current t in
    List.concat_map
      (fun option ->
        let interactions = ref 0 in
        let results = I.search ~interactions t.index option in
        t.interactions <- t.interactions + !interactions;
        List.iter
          (fun (q, file) ->
            if not (List.exists (fun (q', _) -> Q.equal q' q) t.discovered) then
              t.discovered <- (q, file) :: t.discovered)
          results;
        results)
      position.options
end
