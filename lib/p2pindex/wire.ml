let header_bytes = 48

let entry_overhead_bytes = 4

let request_bytes q = header_bytes + String.length q

(* Top-level so that pricing a reply allocates no closure. *)
let rec framed_sum len acc = function
  | [] -> acc
  | e :: rest -> framed_sum len (acc + entry_overhead_bytes + len e) rest

let response_bytes_of_len ~len entries = framed_sum len header_bytes entries

let response_bytes entries = response_bytes_of_len ~len:String.length entries

let response_bytes_of_totals ~count ~lens = header_bytes + (count * entry_overhead_bytes) + lens

let file_response_bytes_of_len name_len = header_bytes + entry_overhead_bytes + name_len + 8
let file_response_bytes (file : Storage.Block_store.file) = file_response_bytes_of_len (String.length file.name)

let cache_install_bytes_of_len query_len target_len =
  header_bytes + (2 * entry_overhead_bytes) + query_len + target_len

let cache_install_bytes query target =
  cache_install_bytes_of_len (String.length query) (String.length target)

let consult_bytes q = header_bytes + String.length q

let stored_entry_bytes_of_len target_len = 20 + target_len
let stored_bytes_of_totals ~count ~lens = (20 * count) + lens

(* A piggybacked version vector: a dot count plus (actor, counter)
   pairs.  Billed only on quorum-path responses. *)
let version_bytes dots = 4 + (12 * dots)
