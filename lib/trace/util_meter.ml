type t = { link : Net.Link.t; t0 : float; busy0 : float }

let start link ~now = { link; t0 = now; busy0 = Net.Link.busy_time link ~now }

let busy_time t ~now =
  if now < t.t0 then invalid_arg "Util_meter: negative measurement window";
  if now = t.t0 then 0.
  else Net.Link.busy_time t.link ~now -. t.busy0

let utilization t ~now =
  match busy_time t ~now with
  | 0. -> 0.
  | busy -> busy /. (now -. t.t0)
