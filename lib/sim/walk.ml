module Q = Bib.Bib_query
module Index = Bib.Bib_index
module Query_gen = Workload.Query_gen
module Policy = Cache.Policy
module Shortcut = Cache.Shortcut_cache
module Network = Dht.Network

type ctx = {
  policy : Policy.t;
  index : Index.t;
  caches : Q.t Shortcut.per_node;
  prefix_route : (string -> Index.step) option;
}

type outcome = {
  steps : int;
  hit_position : int option;  (* interaction index of the shortcut hit *)
  probes_failed : int;  (* Not_indexed responses seen *)
  found : bool;
  path : (Q.t * int) list;  (* visited (query, node) pairs, in order *)
}

type state = {
  event : Query_gen.event;
  target_msd : Q.t;
  msd_string : string;
  current : Q.t;
  steps : int;
  probes_failed : int;
  hit_position : int option;
  rev_path : (Q.t * int) list;
}

type status = Running of state | Finished of outcome

let max_steps = 32

let start (event : Query_gen.event) =
  let target_msd = Q.msd event.target in
  {
    event;
    target_msd;
    msd_string = Q.to_string target_msd;
    current = event.query;
    steps = 0;
    probes_failed = 0;
    hit_position = None;
    rev_path = [];
  }

let finished s ~found =
  Finished
    {
      steps = s.steps;
      hit_position = s.hit_position;
      probes_failed = s.probes_failed;
      found;
      (* lint: allow P4 — terminal: the path materializes once per finished walk, not per step *)
      path = List.rev s.rev_path;
    }

(* Static first-match helpers: the hot step allocates no predicate
   closures (P1) and stops at the first hit instead of filtering. *)

let rec find_cached_hit ~msd = function
  | [] -> None
  | (target_key, pair) :: rest ->
      if String.equal target_key msd then Some pair
      else find_cached_hit ~msd rest

let rec first_covering ~target_msd = function
  | [] -> None
  | c :: rest ->
      if Q.covers c target_msd then Some c
      else first_covering ~target_msd rest

let rec first_matching_generalization ~target = function
  | [] -> None
  | g :: rest ->
      if Q.matches_article g target then Some g
      else first_matching_generalization ~target rest

let generalize s ~probes_failed =
  match
    first_matching_generalization ~target:s.event.Query_gen.target
      (Q.generalizations s.current)
  with
  | Some g -> Running { s with current = g; probes_failed }
  | None -> finished { s with probes_failed } ~found:false

let charge_hit_interaction ctx ~node ~query_string ~msd_string =
  (* The request reaching the node, and the shortcut coming back.  Normal
     lookups are charged inside the index layer; the cache-hit path skips
     it, so the accounting — and the trace span — happens here through
     the same RPC channel.  Under a fault plan the exchange can fail
     outright; the caller then treats the would-be hit as a miss. *)
  let request_bytes = P2pindex.Wire.request_bytes query_string in
  let response_bytes = P2pindex.Wire.response_bytes [ msd_string ] in
  match
    Dht.Rpc.call (Index.rpc ctx.index) ~dst:node ~request_bytes
      (* lint: allow P1 — RPC handler contract: Rpc.call takes a callback; one closure per charged cache hit *)
      ~handler:(fun ~node:_ -> Dht.Rpc.Reply { bytes = response_bytes; value = () })
      ()
  with
  | Dht.Rpc.Exhausted -> false
  | Dht.Rpc.Answered _ ->
      (match Index.tracer ctx.index with
      | None -> ()
      | Some tracer ->
          Obs.Trace.span tracer ~query:query_string ~node ~cache_hit:true
            ~result_count:1 ~request_bytes ~response_bytes
            ~outcome:Obs.Trace.Refined ());
      true

let[@hot] step ctx ~lookup s =
  if s.steps >= max_steps then finished s ~found:false
  else
    (* The hop's query renders exactly once; the liveness probe, the
       cache lookup and the index step below all reuse this string. *)
    let query_string = Q.to_string s.current in
    (* The node contacted is the acting responsible node — the first live
       replica.  With every node alive that is the primary, as in the
       static model; under churn a dead primary's successor answers, and
       when the whole replica set is down the contact is only nominal
       (the lookup below fails over and ultimately reports nothing). *)
    let answering = Index.live_node_of_string ctx.index query_string in
    let answered = answering >= 0 in
    let node =
      if answered then answering else Index.node_of_string ctx.index query_string
    in
    let is_msd_step = Q.equal s.current s.target_msd in
    let s =
      {
        s with
        steps = s.steps + 1;
        (* lint: allow P3 — path accounting: the outcome records one (query, node) pair per visited hop *)
        rev_path = (if is_msd_step then s.rev_path else (s.current, node) :: s.rev_path);
      }
    in
    (* The node answers with everything it has under the key: cached
       shortcuts first — they behave like ordinary index entries and serve
       any requester (Section IV-C) — and index mappings otherwise. *)
    let cached_entries =
      if answered && Policy.caches_enabled ctx.policy && not is_msd_step then
        Shortcut.find_at ctx.caches node ~query_key:query_string
      else []
    in
    let cached_hit = find_cached_hit ~msd:s.msd_string cached_entries in
    match cached_hit with
    | Some (_q, msd_q)
      when charge_hit_interaction ctx ~node ~query_string ~msd_string:s.msd_string
      ->
        (* Shortcut hit: jump straight to the descriptor.  (The guard
           bills the exchange; on a fault-free plan it never fails.) *)
        let hit_position =
          match s.hit_position with Some _ as p -> p | None -> Some s.steps
        in
        Running { s with current = msd_q; hit_position }
    | Some _ | None -> (
        let answer =
          (* Under the routed prefix scheme, a prefix entry point is not a
             hashed key at all: the range-routed index answers it before the
             hashed index is ever consulted.  All other query shapes (and
             every scheme without a route) take the hashed path unchanged. *)
          match ctx.prefix_route with
          | None -> lookup ~rendered:query_string s.current
          | Some route -> (
              match s.current with
              | Q.Author_last_prefix p -> route p
              | Q.Fields _ | Q.Msd _ -> lookup ~rendered:query_string s.current)
        in
        match answer with
        | Index.File _file -> finished s ~found:true
        | Index.Children children -> (
            (* The user knows the target: follow the entry that covers its
               descriptor. *)
            match first_covering ~target_msd:s.target_msd children with
            | Some child -> Running { s with current = child }
            | None ->
                (* Indexed key, but none of its entries leads to the
                   target (can happen for shortcut-created keys whose
                   cached targets differ): fall back to generalization
                   without counting an error — the key did exist. *)
                generalize s ~probes_failed:s.probes_failed)
        | Index.Not_indexed -> (
            match cached_entries with
            | _ :: _ ->
                (* The key exists in the distributed cache, just without
                   the user's target: not an access to non-indexed data. *)
                generalize s ~probes_failed:s.probes_failed
            | [] ->
                (* Recoverable error (Section V-h): generalize and retry. *)
                generalize s ~probes_failed:(s.probes_failed + 1)))

let install_shortcuts ctx s outcome =
  (* Install shortcuts along the successful path, per policy. *)
  if outcome.found && Policy.caches_enabled ctx.policy then begin
    let installs =
      match ctx.policy.Policy.placement with
      | Policy.No_cache -> []
      | Policy.Single_cache -> (
          match outcome.path with [] -> [] | first :: _ -> [ first ])
      | Policy.Multi_cache -> outcome.path
    in
    List.iter
      (fun (q, node) ->
        (* A path node can be the nominal contact of an all-dead replica
           set; installing there would write to a dead node's cache.  The
           install itself is fire-and-forget soft state: under a fault
           plan it may be silently lost or arrive late, and the node is
           re-checked at delivery time. *)
        if Dht.Liveness.alive (Index.liveness ctx.index) node then begin
          let query_key = Q.to_string q in
          Dht.Rpc.send_oneway ~lossy:true (Index.rpc ctx.index) ~dst:node
            ~bytes:(P2pindex.Wire.cache_install_bytes query_key s.msd_string)
            ~category:Network.Cache_update
            ~deliver:(fun () ->
              Dht.Liveness.alive (Index.liveness ctx.index) node
              && Shortcut.add_at ctx.caches node ~query_key
                   ~target_key:s.msd_string (q, s.target_msd))
        end)
      installs
  end

let run ctx event =
  let lookup = Index.lookup_step_rendered ctx.index in
  let s0 = start event in
  let rec go s =
    match step ctx ~lookup s with Running s -> go s | Finished outcome -> outcome
  in
  let outcome = go s0 in
  install_shortcuts ctx s0 outcome;
  outcome
