(** Fuzzy matching against a vocabulary of known strings.

    The paper's closing note (Section VI): the indexing techniques depend on
    the DHT's exact matching, so misspelled descriptors or queries find
    nothing — but "misspellings can often be taken care of by validating
    descriptors and queries against databases that store known file
    descriptors, such as CDDB".  This module is that validation database: a
    character-trigram index over the known values of a field, answering
    "which known strings is this misspelled one likely to mean?" by trigram
    overlap, ranked by Damerau-Levenshtein distance.

    Lookups are case-insensitive; suggestions are returned in their original
    spelling. *)

type t

val create : unit -> t

val add : t -> string -> unit
(** Register a known value.  Duplicates are ignored. *)

val of_list : string list -> t

val mem : t -> string -> bool
(** Case-insensitive exact membership. *)

(* lint: allow X1 — test view: the distance suggest ranks by, checked against the metric laws *)
val edit_distance : string -> string -> int
(** Damerau-Levenshtein distance (insert, delete, substitute, and adjacent
    transposition — the classic typo operations), case-sensitive. *)

val suggest : ?limit:int -> t -> string -> (string * int) list
(** [suggest t misspelled] returns known values within distance
    1 + length / 4 of it (longer strings tolerate more typos) with
    their distances, closest first, at most [limit] (default 5) of them.
    An exact (case-insensitive) match is returned alone with distance 0. *)

val correct : t -> string -> string option
(** The single best suggestion: the exact match, or the unique closest
    known value.  [None] when nothing is close enough or several candidates
    tie (correcting would be a guess). *)
