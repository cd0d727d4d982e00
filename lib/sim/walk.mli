(** One user session as a resumable walk (the paper's interactive model,
    Section V).

    The user knows which article they want but asks with partial
    information; at every step they contact the node acting for the
    current query, take a cache shortcut when one exists, otherwise pick
    from the result set the query that leads towards their target, and
    recover from non-indexed queries through generalization.

    {!step} advances one session by exactly one interaction quantum (at
    most one cache-hit exchange plus one index lookup): the unit the
    concurrent {!Engine} interleaves on the virtual clock.  {!run} is the
    sequential driver the {!Runner} uses. *)

module Q = Bib.Bib_query

type ctx = {
  policy : Cache.Policy.t;
  index : Bib.Bib_index.t;
      (** Also the walk's RPC channel, alive-set and tracer
          ({!Bib.Bib_index.rpc}, [liveness], [tracer]). *)
  caches : Q.t Cache.Shortcut_cache.per_node;
  prefix_route : (string -> Bib.Bib_index.step) option;
      (** When set (the routed prefix scheme), answers
          [Author_last_prefix] probes through the range-routed prefix
          index instead of the hashed [lookup]; all other query shapes
          are unaffected.  [None] reproduces the hashed-only behaviour
          byte-for-byte. *)
}
(** The shared simulation plumbing every session walks over. *)

type outcome = {
  steps : int;
  hit_position : int option;  (** Interaction index of the shortcut hit. *)
  probes_failed : int;  (** [Not_indexed] responses seen. *)
  found : bool;
  path : (Q.t * int) list;  (** Visited (query, node) pairs, in order. *)
}

type state = {
  event : Workload.Query_gen.event;
  target_msd : Q.t;
  msd_string : string;
  current : Q.t;
  steps : int;
  probes_failed : int;
  hit_position : int option;
  rev_path : (Q.t * int) list;
}
(** A session between steps: immutable — {!step} returns the successor. *)

type status = Running of state | Finished of outcome

val start : Workload.Query_gen.event -> state

val step :
  ctx -> lookup:(rendered:string -> Q.t -> Bib.Bib_index.step) -> state -> status
(** Advance one interaction quantum.  [lookup] answers the index probe —
    [Bib.Bib_index.lookup_step_rendered] for a plain run; the {!Engine}
    passes a coalescing wrapper.  [rendered] is the hop query's canonical
    string, rendered once per step and shared with the probe so the index
    layer never re-renders it. *)

val install_shortcuts : ctx -> state -> outcome -> unit
(** Install shortcuts along a finished session's successful path, per
    policy.  [state] identifies the target (any state of the session —
    the target never changes). *)

val run : ctx -> Workload.Query_gen.event -> outcome
(** Drive a session to completion, probing the index with
    [Bib.Bib_index.lookup_step_rendered], and install its shortcuts — the
    sequential mode. *)
