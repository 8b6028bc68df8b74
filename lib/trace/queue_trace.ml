type t = { link : Net.Link.t; series : Series.t; mutable last : int }

let attach link ~now =
  let t = { link; series = Series.create (); last = 0 } in
  let record time qlen =
    t.last <- qlen;
    Series.add_int t.series ~time qlen
  in
  record now (Net.Link.queue_length link);
  Net.Link.on_enqueue link (fun time _p qlen -> record time qlen);
  Net.Link.on_depart link (fun time _p qlen -> record time qlen);
  Net.Link.on_drop link (fun time _p ->
      let qlen = Net.Link.queue_length link in
      if qlen <> t.last then record time qlen);
  t

let series t = t.series
let link t = t.link
