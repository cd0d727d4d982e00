type outcome = Msd_reached | Refined | Generalized | Not_found

let outcome_label = function
  | Msd_reached -> "msd-reached"
  | Refined -> "refined"
  | Generalized -> "generalized"
  | Not_found -> "not-found"

let outcome_of_label = function
  | "msd-reached" -> Some Msd_reached
  | "refined" -> Some Refined
  | "generalized" -> Some Generalized
  | "not-found" -> Some Not_found
  | _ -> None

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
  mutable dropped : int;
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
    dropped = 0;
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
        t.finished_spans <- t.finished_spans - List.length evicted.spans;
        t.dropped <- t.dropped + 1
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

let dropped t = t.dropped

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

let span_of_json j =
  let int_field name =
    match Json.member j name with
    | Some v -> (
        match Json.to_int v with
        | Some n -> Ok n
        | None -> Error (Printf.sprintf "span field %S is not an integer" name))
    | None -> Error (Printf.sprintf "span is missing field %S" name)
  in
  let ( let* ) = Result.bind in
  let* trace_id = int_field "trace" in
  let* seq = int_field "seq" in
  let* query =
    match Option.bind (Json.member j "query") Json.to_str with
    | Some s -> Ok s
    | None -> Error "span is missing field \"query\""
  in
  let* node = int_field "node" in
  let* route_hops = int_field "hops" in
  let* cache_hit =
    match Option.bind (Json.member j "cache_hit") Json.to_bool with
    | Some b -> Ok b
    | None -> Error "span is missing field \"cache_hit\""
  in
  let* result_count = int_field "results" in
  let* request_bytes = int_field "request_bytes" in
  let* response_bytes = int_field "response_bytes" in
  let* outcome =
    match Option.bind (Json.member j "outcome") Json.to_str with
    | Some s -> (
        match outcome_of_label s with
        | Some o -> Ok o
        | None -> Error (Printf.sprintf "unknown span outcome %S" s))
    | None -> Error "span is missing field \"outcome\""
  in
  Ok
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

let output_jsonl t oc =
  Queue.iter
    (fun tr ->
      List.iter
        (fun s ->
          output_string oc (Json.to_string (span_to_json s));
          output_char oc '\n')
        tr.spans)
    t.finished

let to_jsonl t =
  let buf = Buffer.create 4096 in
  Queue.iter
    (fun tr ->
      List.iter
        (fun s ->
          Buffer.add_string buf (Json.to_string (span_to_json s));
          Buffer.add_char buf '\n')
        tr.spans)
    t.finished;
  Buffer.contents buf

let spans_of_jsonl content =
  let lines = String.split_on_char '\n' content in
  let rec go acc lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        let line = String.trim line in
        if line = "" then go acc (lineno + 1) rest
        else (
          match Json.of_string line with
          | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
          | Ok j -> (
              match span_of_json j with
              | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
              | Ok s -> go (s :: acc) (lineno + 1) rest))
  in
  go [] 1 lines

let traces_of_spans spans =
  let order = ref [] in
  let by_id = Hashtbl.create 16 in
  List.iter
    (fun s ->
      match Hashtbl.find_opt by_id s.trace_id with
      | Some spans -> Hashtbl.replace by_id s.trace_id (s :: spans)
      | None ->
          order := s.trace_id :: !order;
          Hashtbl.add by_id s.trace_id [ s ])
    spans;
  List.rev_map
    (fun id ->
      let spans =
        List.sort (fun a b -> compare a.seq b.seq) (Hashtbl.find by_id id)
      in
      let root = match spans with s :: _ -> s.query | [] -> "" in
      { id; root; spans })
    !order
