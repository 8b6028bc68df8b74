let pack ~conn ~kind =
  (conn lsl 1) lor (match kind with Net.Packet.Data -> 0 | Net.Packet.Ack -> 1)

let conn code = code asr 1
let kind code = if code land 1 = 0 then Net.Packet.Data else Net.Packet.Ack

let all n row =
  let rec build i acc = if i < 0 then acc else build (i - 1) (row i :: acc) in
  build (n - 1) []

let in_window time ~t0 ~t1 row =
  let n = Column.Float.length time in
  let acc = ref [] in
  for c = Column.chunk_count n - 1 downto 0 do
    let ts = Column.Float.chunk time c in
    for k = Column.chunk_length n c - 1 downto 0 do
      let tm = Array.unsafe_get ts k in
      if tm >= t0 && tm < t1 then
        acc := row ((c lsl Column.chunk_bits) + k) :: !acc
    done
  done;
  !acc
