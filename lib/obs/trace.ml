type outcome = Msd_reached | Refined | Generalized | Not_found

let outcome_label = function
  | Msd_reached -> "msd-reached"
  | Refined -> "refined"
  | Generalized -> "generalized"
  | Not_found -> "not-found"

type span = {
  trace_id : int;
  seq : int;
  query : string;
  node : int;
  route_hops : int;
  cache_hit : bool;
  result_count : int;
  request_bytes : int;
  response_bytes : int;
  outcome : outcome;
}

type trace = { id : int; root : string; spans : span list }

(* ------------------------------------------------------------------ *)
(* Collector: a queue of finished traces bounded by [capacity], plus the
   one trace currently being recorded. *)

type open_trace = { ot_id : int; ot_root : string; mutable rev_spans : span list; mutable next_seq : int }

type t = {
  capacity : int option;
  finished : trace Queue.t;
  mutable current : open_trace option;
  mutable next_id : int;
  mutable finished_spans : int;
}

let create ?capacity () =
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Trace.create: capacity must be positive"
  | Some _ | None -> ());
  {
    capacity;
    finished = Queue.create ();
    current = None;
    next_id = 0;
    finished_spans = 0;
  }

let push_finished t tr =
  Queue.add tr t.finished;
  t.finished_spans <- t.finished_spans + List.length tr.spans;
  match t.capacity with
  | None -> ()
  | Some cap ->
      while Queue.length t.finished > cap do
        let evicted = Queue.pop t.finished in
        t.finished_spans <- t.finished_spans - List.length evicted.spans
      done

let end_trace t =
  match t.current with
  | None -> ()
  | Some ot ->
      t.current <- None;
      push_finished t { id = ot.ot_id; root = ot.ot_root; spans = List.rev ot.rev_spans }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let begin_trace t ~root =
  end_trace t;
  t.current <- Some { ot_id = fresh_id t; ot_root = root; rev_spans = []; next_seq = 0 }

let span t ~query ~node ?(route_hops = 0) ?(cache_hit = false) ?(result_count = 0)
    ?(request_bytes = 0) ?(response_bytes = 0) ~outcome () =
  let mk trace_id seq =
    {
      trace_id;
      seq;
      query;
      node;
      route_hops;
      cache_hit;
      result_count;
      request_bytes;
      response_bytes;
      outcome;
    }
  in
  match t.current with
  | Some ot ->
      ot.rev_spans <- mk ot.ot_id ot.next_seq :: ot.rev_spans;
      ot.next_seq <- ot.next_seq + 1
  | None ->
      (* A lone interaction outside any lookup chain: record it as its own
         single-span trace. *)
      let id = fresh_id t in
      push_finished t { id; root = query; spans = [ mk id 0 ] }

let traces t = List.of_seq (Queue.to_seq t.finished)

let trace_count t = Queue.length t.finished

let span_count t = t.finished_spans

(* ------------------------------------------------------------------ *)
(* JSONL. *)

let span_to_json s : Json.t =
  Obj
    [
      ("trace", Int s.trace_id);
      ("seq", Int s.seq);
      ("query", String s.query);
      ("node", Int s.node);
      ("hops", Int s.route_hops);
      ("cache_hit", Bool s.cache_hit);
      ("results", Int s.result_count);
      ("request_bytes", Int s.request_bytes);
      ("response_bytes", Int s.response_bytes);
      ("outcome", String (outcome_label s.outcome));
    ]

let output_jsonl t oc =
  Queue.iter
    (fun tr ->
      List.iter
        (fun s ->
          output_string oc (Json.to_string (span_to_json s));
          output_char oc '\n')
        tr.spans)
    t.finished
