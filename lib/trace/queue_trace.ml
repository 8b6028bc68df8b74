type t = { link : Net.Link.t; series : Series.t }

let attach link ~now =
  let t = { link; series = Series.create () } in
  Series.add t.series ~time:now
    ~value:(float_of_int (Net.Link.queue_length link));
  let record time qlen = Series.add t.series ~time ~value:(float_of_int qlen) in
  Net.Link.on_enqueue link (fun time _p qlen -> record time qlen);
  Net.Link.on_depart link (fun time _p qlen -> record time qlen);
  t

let series t = t.series
let link t = t.link
