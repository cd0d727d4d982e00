(** Wire-format size model.

    The paper measures traffic in bytes per query (Fig. 12) without giving a
    message format, so we fix a simple one and use it consistently: every
    message carries a fixed header (source and destination keys, a type tag
    and a length field) plus its payload.  Queries travel as their canonical
    strings; result sets as length-prefixed lists of strings.  Absolute byte
    counts therefore depend on this model, but ratios between indexing
    schemes — what the paper's figure actually shows — do not. *)

(* lint: allow X1 — test view: a wire-model constant, for the byte accounting checks *)
val header_bytes : int
(** Fixed per-message overhead: two 20-byte keys, a 4-byte type tag and a
    4-byte length — 48 bytes. *)

(* lint: allow X1 — test view: a wire-model constant, for the byte accounting checks *)
val entry_overhead_bytes : int
(** Per-list-entry framing in a response: a 4-byte length prefix. *)

val request_bytes : string -> int
(** Size of a lookup request carrying one query string. *)

val response_bytes : string list -> int
(** Size of a response carrying a result set of query strings. *)

val response_bytes_of_len : len:('a -> int) -> 'a list -> int
(** {!response_bytes} over entries whose string lengths [len] reads
    off — stored entries carry their rendered length, so a reply is
    priced without rendering its result set. *)

val response_bytes_of_totals : count:int -> lens:int -> int
(** {!response_bytes} over [count] strings whose lengths sum to
    [lens]. *)

val file_response_bytes : Storage.Block_store.file -> int
(** Size of a response carrying a file handle (name + size + header).  The
    file content itself is not counted: the paper measures index traffic,
    not download traffic. *)

val cache_install_bytes : string -> string -> int
(** Size of the message installing one shortcut (query ; target) pair. *)

val cache_install_bytes_of_len : int -> int -> int
(** {!cache_install_bytes} from the two strings' lengths. *)

val consult_bytes : string -> int
(** Size of a local cache-consultation ticket: what a coalesced lookup
    pays to ride an identical in-flight probe's response instead of
    issuing its own — the query string plus a header, no response. *)

val stored_entry_bytes_of_len : int -> int
(** Storage footprint of one index entry, from its target string's
    length: the 20-byte key it is filed under plus the target string. *)

val stored_bytes_of_totals : count:int -> lens:int -> int
(** {!stored_entry_bytes_of_len} summed over [count] entries whose
    target lengths sum to [lens]. *)

val version_bytes : int -> int
(** Wire size of a piggybacked version vector with the given number of
    dots: a 4-byte count plus 12 bytes (actor + counter) per dot.
    Quorum-path responses carry their replica's vectors; the plain
    first-live-replica path bills nothing extra. *)
