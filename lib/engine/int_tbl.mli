(** A hash table keyed by ints, for per-event lookups (routes,
    endpoints, packet ids, connection ids).

    A key hashes to itself, so [find] compares and indexes plain ints;
    the generic [Hashtbl] calls the polymorphic C hash on every lookup.
    Iteration order differs from the generic table's: callers that
    iterate must impose their own order. *)

include Hashtbl.S with type key = int
