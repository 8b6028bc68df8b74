let chunk_bits = 12
let chunk_size = 1 lsl chunk_bits
let chunk_count n = (n + chunk_size - 1) lsr chunk_bits
let chunk_length n c = min chunk_size (n - (c lsl chunk_bits))

(* Chunk 0 starts this small because a zero-horizon run still creates a
   couple of dozen columns; a full first chunk each would dominate its
   set-up cost. *)
let first_capacity = 16

module Make (E : sig
  type elt

  val zero : elt
end) =
struct
  type t = {
    mutable chunks : E.elt array array;  (* spine; unused slots are [||] *)
    mutable cur : E.elt array;  (* the chunk the next push lands in *)
    mutable pos : int;  (* next free slot of [cur] *)
    mutable len : int;
  }

  let create () = { chunks = [||]; cur = [||]; pos = 0; len = 0 }
  let length t = t.len

  let grow t =
    if t.len < chunk_size then begin
      (* Still in chunk 0: double it (the only copying a column does). *)
      let c = Array.make (min chunk_size (max first_capacity (2 * t.len))) E.zero in
      Array.blit t.cur 0 c 0 t.len;
      if t.len = 0 then t.chunks <- Array.make 4 [||];
      t.chunks.(0) <- c;
      t.cur <- c
    end
    else begin
      let n = t.len lsr chunk_bits in
      if n = Array.length t.chunks then begin
        let spine = Array.make (2 * n) [||] in
        Array.blit t.chunks 0 spine 0 n;
        t.chunks <- spine
      end;
      let c = Array.make chunk_size E.zero in
      t.chunks.(n) <- c;
      t.cur <- c;
      t.pos <- 0
    end

  let get t i =
    if i < 0 || i >= t.len then
      invalid_arg "Column.get: index out of range";
    Array.unsafe_get
      (Array.unsafe_get t.chunks (i lsr chunk_bits))
      (i land (chunk_size - 1))

  let chunk t c =
    if c < 0 || c >= chunk_count t.len then
      invalid_arg "Column.chunk: index out of range";
    Array.unsafe_get t.chunks c
end

(* Each push is written where the element type is known, not in [Make]:
   there a store into an ['a array] takes the generic path (the write
   barrier for an int, a boxed argument for a float).  Here an int store
   is a plain store and, inlined into the caller, a float is stored flat
   without ever being boxed. *)
module Float = struct
  include Make (struct
    type elt = float

    let zero = 0.
  end)

  let[@inline] push t v =
    if t.pos = Array.length t.cur then grow t;
    Array.unsafe_set t.cur t.pos v;
    t.pos <- t.pos + 1;
    t.len <- t.len + 1

  let[@inline] push_int t n = push t (float_of_int n)
end

module Int = struct
  include Make (struct
    type elt = int

    let zero = 0
  end)

  let[@inline] push t v =
    if t.pos = Array.length t.cur then grow t;
    Array.unsafe_set t.cur t.pos v;
    t.pos <- t.pos + 1;
    t.len <- t.len + 1
end
