type t = { link : Net.Link.t; series : Series.t; mutable last : int }

let record t =
  let qlen = Net.Link.queue_length t.link in
  t.last <- qlen;
  Series.add_int t.series ~time:(Net.Link.now t.link) qlen

let attach link =
  let t = { link; series = Series.create (); last = 0 } in
  record t;
  Net.Link.on_enqueue link (fun _p -> record t);
  Net.Link.on_depart link (fun _p -> record t);
  Net.Link.on_drop link (fun _p ->
      if Net.Link.queue_length link <> t.last then record t);
  t

let series t = t.series
let link t = t.link
