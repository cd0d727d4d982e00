(** File payload (the "Publication index" top level of Fig. 5).

    Actual article files never leave their home node; the indexes only
    carry keys, and a lookup's last step returns the file itself.  A file
    is a named blob with a size; sizes drive the paper's storage-overhead
    comparison (Section V-B: 29.1 GB of articles at an average of 250 KB
    each). *)

type file = { name : string; size_bytes : int }
