(** Bibliographic records — the data items of the paper's running example.

    An article mirrors a DBLP entry (Fig. 1): one or more authors, a title,
    a venue, a year, and the size of the stored file.  The [id] is the
    article's popularity rank (1 = most popular), which the workload
    generator draws from the paper's fitted power law. *)

type author = { first : string; last : string }

val author_equal : author -> author -> bool
val compare_author : author -> author -> int
val author_to_string : author -> string
(** ["John Smith"]. *)

type t = {
  id : int;  (** Popularity rank, 1-based, unique within a corpus. *)
  authors : author list;  (** Non-empty, distinct. *)
  title : string;
  conf : string;
  year : int;
  size_bytes : int;  (** Size of the article file (Postscript/PDF). *)
}

val make :
  id:int ->
  authors:author list ->
  title:string ->
  conf:string ->
  year:int ->
  size_bytes:int ->
  t
(** @raise Invalid_argument on an empty or duplicated author list. *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** By [id]. *)

val to_xml : t -> Xmlkit.Xml.t
(** The article's descriptor, in the Fig. 1 format (one [author] element per
    author). *)

val file : t -> Storage.Block_store.file
(** The stored payload: ["article-<id>.pdf"] of [size_bytes]. *)
