type counts = {
  mutable losses : int;
  mutable outage_drops : int;
  mutable duplicates : int;
  mutable delayed : int;
  mutable max_delay : float;
  (* Per-connection data-packet accounting, for conservation arguments:
     a sender's delivered count can never exceed
     transmissions + duplicates - fault losses (of its data). *)
  data_losses : (int, int) Hashtbl.t;
  data_duplicates : (int, int) Hashtbl.t;
}

type t = { link : Net.Link.t; spec : Spec.t; seed : int; counts : counts }

(* Independent splitmix64 streams per (seed, link, fault kind): a link's
   fault sequence depends only on the plan seed and its own traffic, and
   the flap timeline on the seed alone — never on other links' plans or
   unrelated scenario edits. *)
let stream ~seed ~link_id ~kind =
  Engine.Rng.create
    ~seed:(seed + ((link_id + 1) * 0x9E3779B9) + (kind * 0x85EBCA6B))

let bump tbl conn =
  Hashtbl.replace tbl conn
    (1 + Option.value ~default:0 (Hashtbl.find_opt tbl conn))

let observe counts _time (event : Net.Link.fault_event) (p : Net.Packet.t) =
  match event with
  | Net.Link.Fault_drop label ->
    if label = "outage" then counts.outage_drops <- counts.outage_drops + 1
    else counts.losses <- counts.losses + 1;
    if p.Net.Packet.kind = Net.Packet.Data then
      bump counts.data_losses p.Net.Packet.conn
  | Net.Link.Fault_duplicate ->
    counts.duplicates <- counts.duplicates + 1;
    if p.Net.Packet.kind = Net.Packet.Data then
      bump counts.data_duplicates p.Net.Packet.conn
  | Net.Link.Fault_delay extra ->
    counts.delayed <- counts.delayed + 1;
    counts.max_delay <- Float.max counts.max_delay extra

let make_ingress spec ~rng =
  let drop_label =
    match spec.Spec.loss with
    | None -> fun () -> None
    | Some (Spec.Bernoulli p) ->
      fun () -> if Engine.Rng.float rng < p then Some "loss" else None
    | Some (Spec.Gilbert_elliott { p_enter; p_exit; loss_in_burst; loss_outside })
      ->
      let in_burst = ref false in
      fun () ->
        (* Advance the chain one step per offered packet, then draw the
           state-dependent loss. *)
        (if !in_burst then begin
           if Engine.Rng.float rng < p_exit then in_burst := false
         end
         else if Engine.Rng.float rng < p_enter then in_burst := true);
        let p_loss = if !in_burst then loss_in_burst else loss_outside in
        if p_loss > 0. && Engine.Rng.float rng < p_loss then
          Some "burst-loss"
        else None
  in
  let duplicate =
    match spec.Spec.duplicate with
    | None -> fun () -> false
    | Some p -> fun () -> Engine.Rng.float rng < p
  in
  fun (_ : Net.Packet.t) : Net.Link.verdict ->
    match drop_label () with
    | Some label -> `Drop label
    | None -> if duplicate () then `Duplicate else `Pass

let make_extra_delay spec ~sim ~prop ~rng =
  match spec.Spec.jitter with
  | None | Some { Spec.bound = 0.; _ } -> fun _ -> 0.
  | Some { Spec.bound; preserve_order } ->
    let last_delivery = ref neg_infinity in
    fun (_ : Net.Packet.t) ->
      let extra = Engine.Rng.uniform rng ~lo:0. ~hi:bound in
      if not preserve_order then extra
      else begin
        (* Stretch the sample so delivery times stay non-decreasing. *)
        let now = Engine.Sim.now sim in
        let at = Float.max (now +. prop +. extra) !last_delivery in
        last_delivery := at;
        at -. now -. prop
      end

let schedule_outages spec ~sim ~link ~rng =
  match spec.Spec.outage with
  | None -> ()
  | Some { Spec.windows; flap } ->
    List.iter
      (fun (start, stop) ->
        ignore
          (Engine.Sim.at sim ~time:start (fun () -> Net.Link.set_down link true)
            : Engine.Sim.handle);
        ignore
          (Engine.Sim.at sim ~time:stop (fun () -> Net.Link.set_down link false)
            : Engine.Sim.handle))
      windows;
    match flap with
    | None -> ()
    | Some (mean_up, mean_down) ->
      (* Flap events self-reschedule forever; run the simulation with
         [Sim.run ~until], not [run_to_completion]. *)
      let rec go_down () =
        ignore
          (Engine.Sim.schedule sim
             ~delay:(Engine.Rng.exponential rng ~mean:mean_up) (fun () ->
               Net.Link.set_down link true;
               go_up ())
            : Engine.Sim.handle)
      and go_up () =
        ignore
          (Engine.Sim.schedule sim
             ~delay:(Engine.Rng.exponential rng ~mean:mean_down) (fun () ->
               Net.Link.set_down link false;
               go_down ())
            : Engine.Sim.handle)
      in
      go_down ()

let install net link ~seed spec =
  if Net.Link.has_faults link then
    invalid_arg
      (Printf.sprintf "Faults.Plan.install: link %s already has a fault plan"
         (Net.Link.name link));
  let sim = Net.Network.sim net in
  let link_id = Net.Link.id link in
  let counts =
    {
      losses = 0;
      outage_drops = 0;
      duplicates = 0;
      delayed = 0;
      max_delay = 0.;
      data_losses = Hashtbl.create 8;
      data_duplicates = Hashtbl.create 8;
    }
  in
  let ingress = make_ingress spec ~rng:(stream ~seed ~link_id ~kind:0) in
  let extra_delay =
    make_extra_delay spec ~sim ~prop:(Net.Link.prop_delay link)
      ~rng:(stream ~seed ~link_id ~kind:1)
  in
  let clone (p : Net.Packet.t) =
    Net.Network.make_packet net ~conn:p.conn ~kind:p.kind ~seq:p.seq
      ~size:p.size ~src:p.src ~dst:p.dst ~retransmit:p.retransmit
  in
  Net.Link.install_faults link ~ingress ~extra_delay ~clone;
  Net.Link.on_fault link (fun time event p -> observe counts time event p);
  schedule_outages spec ~sim ~link ~rng:(stream ~seed ~link_id ~kind:2);
  { link; spec; seed; counts }

let link t = t.link
let spec t = t.spec
let seed t = t.seed
let losses t = t.counts.losses
let outage_drops t = t.counts.outage_drops
let duplicates t = t.counts.duplicates
let delayed t = t.counts.delayed
let max_delay t = t.counts.max_delay

let data_losses_for t ~conn =
  Option.value ~default:0 (Hashtbl.find_opt t.counts.data_losses conn)

let data_duplicates_for t ~conn =
  Option.value ~default:0 (Hashtbl.find_opt t.counts.data_duplicates conn)

let summary t =
  Printf.sprintf
    "link %s [%s]: %d lost, %d outage-dropped, %d duplicated, %d delayed \
     (max +%.4gs)"
    (Net.Link.name t.link)
    (Spec.to_string t.spec)
    t.counts.losses t.counts.outage_drops t.counts.duplicates t.counts.delayed
    t.counts.max_delay
