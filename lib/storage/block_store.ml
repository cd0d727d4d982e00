type file = { name : string; size_bytes : int }
