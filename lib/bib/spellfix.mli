(** Misspelled-query recovery for the bibliographic database.

    Implements the validation step sketched in the paper's final notes
    (Section VI): before hashing a query into the DHT — where only exact
    matches can succeed — each constrained field is checked against the
    vocabulary of known values (the CDDB role), and corrected when it is a
    near-miss of exactly one known value. *)

type t

val of_corpus : Article.t array -> t
(** Build the vocabularies (author names, titles, venues) of a corpus. *)

type outcome =
  | Unchanged  (** Every field was already a known value. *)
  | Corrected of Bib_query.t  (** Some fields were fixed; here is the query to run. *)
  | Unfixable  (** A field matches nothing known, even fuzzily. *)

val fix : t -> Bib_query.t -> outcome
(** Validate and correct each constrained field of a [Fields] query.
    [Msd] and prefix queries pass through [Unchanged]. *)
