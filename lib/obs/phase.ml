type clock = unit -> int64

let null_clock () = 0L

type entry = {
  phase : string;
  calls : int;
  elapsed_ns : int64;
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

(* Accumulation cells are mutable so the hot [span] path does one Hashtbl
   lookup and in-place adds — no per-span consing beyond the two
   [Gc.quick_stat] records. *)
type cell = {
  mutable c_calls : int;
  mutable c_elapsed_ns : int64;
  mutable c_minor_words : float;
  mutable c_promoted_words : float;
  mutable c_major_words : float;
  mutable c_minor_collections : int;
  mutable c_major_collections : int;
}

type t = { clock : clock; cells : (string, cell) Hashtbl.t }

let create ?(clock = null_clock) () = { clock; cells = Hashtbl.create 8 }

let cell t phase =
  match Hashtbl.find_opt t.cells phase with
  | Some c -> c
  | None ->
      let c =
        {
          c_calls = 0;
          c_elapsed_ns = 0L;
          c_minor_words = 0.0;
          c_promoted_words = 0.0;
          c_major_words = 0.0;
          c_minor_collections = 0;
          c_major_collections = 0;
        }
      in
      Hashtbl.replace t.cells phase c;
      c

let span t phase f =
  let c = cell t phase in
  let before = Gc.quick_stat () in
  (* [quick_stat]'s minor_words only advances at minor collections, so a
     short span would read as zero allocation; [Gc.minor_words] samples the
     live allocation pointer instead. *)
  let minor_before = Gc.minor_words () in
  let t0 = t.clock () in
  (* The measurement lands even when [f] raises, so a failing run still
     reports where it spent its time. *)
  Fun.protect
    ~finally:(fun () ->
      let t1 = t.clock () in
      let minor_after = Gc.minor_words () in
      let after = Gc.quick_stat () in
      c.c_calls <- c.c_calls + 1;
      c.c_elapsed_ns <- Int64.add c.c_elapsed_ns (Int64.sub t1 t0);
      c.c_minor_words <- c.c_minor_words +. (minor_after -. minor_before);
      c.c_promoted_words <-
        c.c_promoted_words +. (after.promoted_words -. before.promoted_words);
      c.c_major_words <- c.c_major_words +. (after.major_words -. before.major_words);
      c.c_minor_collections <-
        c.c_minor_collections + (after.minor_collections - before.minor_collections);
      c.c_major_collections <-
        c.c_major_collections + (after.major_collections - before.major_collections))
    f

let span_opt t phase f = match t with Some t -> span t phase f | None -> f ()

let entry_of_cell phase (c : cell) =
  {
    phase;
    calls = c.c_calls;
    elapsed_ns = c.c_elapsed_ns;
    minor_words = c.c_minor_words;
    promoted_words = c.c_promoted_words;
    major_words = c.c_major_words;
    minor_collections = c.c_minor_collections;
    major_collections = c.c_major_collections;
  }

let entries t =
  List.map
    (fun (phase, c) -> entry_of_cell phase c)
    (Stdx.Det_tbl.sorted_bindings ~compare:String.compare t.cells)

let to_metrics t registry =
  List.iter
    (fun e ->
      let labels = [ ("phase", e.phase) ] in
      let set name help v =
        Metrics.Gauge.set (Metrics.gauge registry ~help ~labels name) v
      in
      set "p2pindex_phase_elapsed_ns" "Clock time spent in the phase, nanoseconds"
        (Int64.to_float e.elapsed_ns);
      set "p2pindex_phase_calls" "Spans accumulated into the phase"
        (float_of_int e.calls);
      set "p2pindex_phase_minor_words" "Minor-heap words allocated in the phase"
        e.minor_words;
      set "p2pindex_phase_promoted_words"
        "Words promoted from the minor to the major heap in the phase"
        e.promoted_words;
      set "p2pindex_phase_major_words"
        "Major-heap words allocated in the phase (promotions included)"
        e.major_words;
      set "p2pindex_phase_minor_collections" "Minor collections during the phase"
        (float_of_int e.minor_collections);
      set "p2pindex_phase_major_collections" "Major collections during the phase"
        (float_of_int e.major_collections))
    (entries t)

let render_table t =
  let rows =
    List.map
      (fun e ->
        [
          e.phase;
          string_of_int e.calls;
          Printf.sprintf "%.3f" (Int64.to_float e.elapsed_ns /. 1e6);
          Printf.sprintf "%.0f" e.minor_words;
          Printf.sprintf "%.0f" e.promoted_words;
          Printf.sprintf "%.0f" e.major_words;
          string_of_int e.minor_collections;
          string_of_int e.major_collections;
        ])
      (entries t)
  in
  Stdx.Tabular.render_table
    ~headers:
      [
        "phase"; "calls"; "elapsed ms"; "minor words"; "promoted"; "major words";
        "minor gcs"; "major gcs";
      ]
    ~rows
