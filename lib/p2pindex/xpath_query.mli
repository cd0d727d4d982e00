(** The generic XPath instance of {!Query_sig.QUERY}.

    [compatible] is the always-[true] conservative approximation: deciding
    whether two arbitrary tree patterns can match a common document needs a
    schema (is a field single-valued?), which generic XPath does not have.
    The search prunes less but stays complete.  Applications with structure
    knowledge (like [Bib.Bib_query]) give precise answers. *)

include Query_sig.QUERY with type t = Xpath.t
