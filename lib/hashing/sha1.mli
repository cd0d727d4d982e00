(** SHA-1 (RFC 3174).

    The DHT identifier space is the standard Chord/Pastry choice of SHA-1
    digests.  Cryptographic strength is irrelevant here; what matters is the
    uniform spread of keys over the 160-bit ring.

    Two paths compute the same function:
    - a C kernel on the x86-64 SHA extensions (SHA1RNDS4, SHA1NEXTE,
      SHA1MSG1, SHA1MSG2), built from [sha1_stubs.c] with the C compiler
      OCaml already uses;
    - {!reference_digest}, a from-scratch OCaml implementation.

    {!digest_string} is bound once, when this module is initialised: to the
    kernel when [cpuid] reports SHA, SSSE3 and SSE4.1, to the reference
    everywhere else (other CPUs, other architectures).  Nothing else
    selects a path.

    Both paths allocate exactly the result: 4 minor words for the 20-byte
    string, whatever the input's length. *)

type digest = string
(** 20-byte binary digest. *)

val digest_string : string -> digest
(** [digest_string s] is the 20-byte SHA-1 digest of [s], on the path
    {!hardware} names. *)

val reference_digest : string -> digest
(** The RFC 3174 reference in OCaml: the fallback where the CPU lacks the
    SHA extensions, and what the tests hold the kernel to.  It reads the
    message in place and keeps its 16-word schedule in a buffer per
    domain. *)

(* lint: allow X1 — test view: names in the test log which SHA-1 kernel this CPU runs *)
val hardware : bool
(** [true] when {!digest_string} runs on the SHA-extension kernel. *)

val to_hex : digest -> string
(** Lowercase hexadecimal rendering (40 characters). *)

val of_hex : string -> digest
(** Inverse of {!to_hex}.  @raise Invalid_argument on malformed input. *)
