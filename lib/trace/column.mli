(** Append-only chunked columns: the storage behind every recorder in
    this library.

    A column is a spine of fixed-size chunks.  Chunk 0 starts at 16 slots
    and doubles until it reaches {!chunk_size}; after that each new chunk
    is allocated at full size and chained onto the spine, so a long run
    never copies its samples again and a push allocates nothing.  Element
    [i] lives in chunk [i lsr chunk_bits] at offset [i land (chunk_size -
    1)] — also while chunk 0 is still growing.

    Queries that scan many elements should walk {!Float.chunk} arrays
    directly rather than call [get] per element: [get] is a cross-module
    call and, for floats, returns a boxed value. *)

val chunk_bits : int
val chunk_size : int

(** [chunk_count n] is the number of chunks holding [n] elements. *)
val chunk_count : int -> int

(** [chunk_length n c] is how many of [n] elements live in chunk [c]. *)
val chunk_length : int -> int -> int

module Float : sig
  type t

  val create : unit -> t
  val length : t -> int

  (** Inlined into the caller, so the float is stored flat without being
      boxed. *)
  val push : t -> float -> unit

  (** [push_int t n] is [push t (float_of_int n)] without boxing the
      float on the way in. *)
  val push_int : t -> int -> unit

  (** @raise Invalid_argument if the index is out of range. *)
  val get : t -> int -> float

  (** [chunk t c] is the storage of chunk [c]; only its first
      [chunk_length (length t) c] slots hold elements.
      @raise Invalid_argument if [c >= chunk_count (length t)]. *)
  val chunk : t -> int -> float array
end

module Int : sig
  type t

  val create : unit -> t
  val length : t -> int

  (** Inlined; a plain store, without the write barrier. *)
  val push : t -> int -> unit

  (** @raise Invalid_argument if the index is out of range. *)
  val get : t -> int -> int

  (** As {!Float.chunk}. *)
  val chunk : t -> int -> int array
end
