(* Per-layer cost ledger for the traced run, measured from outside the
   library: each row runs the workload's scenarios with one more layer
   than the row it builds on, through that layer's public API, and a
   layer's per-event cost is its row's ns/event minus that row's.

     engine    bare Sim.Timer ring, the workload's event count and mean
               queue length
     net       dumbbell plus a fixed-window echo over
               Network.send_from_host / register_endpoint, no drops
     tcp       dumbbell plus Tcp.Connection.create plus Sim.run
     runner    Core.Runner.run, obs off (adds the lib/trace recorders)
     validate  Runner.run with every Validate checker
     metrics / flowstats / btrace
               Runner.run with each obs consumer added in turn

   then the offline obs read path, set-up, the sweep and analysis
   per-point costs, and the pool's dispatch costs.  Rows are timed
   round-robin, one rep of each in turn, so machine drift and the heap
   state earlier rows leave behind fall on every row alike. *)

module S = Core.Scenario

let span = Spans.span

type row = {
  seconds : float;  (** median scaled seconds per rep (see {!Clock}) *)
  spread : float;  (** interquartile range of the reps over their median *)
  count : int;  (** what one rep counts: events, records or points *)
  words : float;  (** minor-heap words allocated by one rep *)
}

(* A row to time: [prepare ()] does the untimed set-up of one rep and
   returns the timed part, which returns its count. *)
type spec = {
  name : string;
  base : string option;  (** the row this one adds a layer to *)
  prepare : unit -> unit -> int;
}

type entry = { spec : spec; row : row }

(* One warm-up rep of every row, then rounds of one timed rep of each
   row: at least [min_rounds], and until [seconds] have gone by. *)
let measure_all ~min_rounds ~seconds specs =
  List.iter (fun s -> ignore (s.prepare () () : int)) specs;
  let samples = List.map (fun s -> (s, ref [])) specs in
  let start = Clock.now () and rounds = ref 0 in
  while !rounds < min_rounds || Clock.now () -. start < seconds do
    incr rounds;
    List.iter
      (fun (s, acc) ->
        span ("bench." ^ s.name) (fun () ->
            let go = s.prepare () in
            let sample =
              Clock.time (fun () ->
                  let w0 = Gc.minor_words () in
                  let count = go () in
                  (count, Gc.minor_words () -. w0))
            in
            acc := sample :: !acc))
      samples
  done;
  List.map
    (fun (s, acc) ->
      let times = List.map snd !acc and (count, words), _ = List.hd !acc in
      let q = Clock.quantile in
      {
        spec = s;
        row =
          {
            seconds = q 0.5 times;
            spread = (q 0.75 times -. q 0.25 times) /. q 0.5 times;
            count;
            words;
          };
      })
    samples

let ns_per r = 1e9 *. r.seconds /. float_of_int r.count
let words_per r = r.words /. float_of_int r.count
let find entries name = (List.find (fun e -> e.spec.name = name) entries).row

(* [f] of [name]'s row minus [f] of its base row: that layer's share. *)
let delta entries f name =
  let e = List.find (fun e -> e.spec.name = name) entries in
  f e.row -. match e.spec.base with Some b -> f (find entries b) | None -> 0.

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

(* ------------------------------------------------------------------ *)
(* Rows below Runner                                                   *)
(* ------------------------------------------------------------------ *)

let params (sc : S.t) buffer =
  Net.Topology.params ~gateway:sc.gateway ~tau:sc.tau ~buffer ()

let endpoints (db : Net.Topology.dumbbell) (spec : S.conn_spec) =
  match spec.dir with
  | S.Forward -> (db.host1, db.host2)
  | S.Reverse -> (db.host2, db.host1)

(* The network and connections Runner.run would build, without Runner. *)
let build (sc : S.t) =
  let sim = Engine.Sim.create () in
  let db =
    span "net.Topology.dumbbell" (fun () ->
        Net.Topology.dumbbell sim (params sc sc.buffer))
  in
  List.iteri
    (fun i (spec : S.conn_spec) ->
      let src_host, dst_host = endpoints db spec in
      let config =
        Tcp.Config.make ~conn:(i + 1) ~src_host ~dst_host ~ack_size:spec.ack_size
          ~maxwnd:spec.maxwnd ~cc:spec.cc ~start_time:spec.start_time
          ~delayed_ack:spec.delayed_ack ~loss_detection:spec.loss_detection
          ~rto_params:spec.rto_params ~pacing:spec.pacing ~rtt_skew:spec.rtt_skew
          ~flow_size:spec.flow_size ()
      in
      ignore
        (span "tcp.Connection.create" (fun () ->
             Tcp.Connection.create db.net config)
          : Tcp.Connection.t))
    sc.conns;
  sim

let tcp_run (sc : S.t) =
  let sim = build sc in
  span "engine.Sim.run" (fun () -> Engine.Sim.run sim ~until:sc.duration);
  Engine.Sim.events_run sim

(* Events of a scenario and the mean event-queue length its events
   see; untimed (the observer is not free). *)
let profile (sc : S.t) =
  let sim = build sc in
  let total = ref 0 in
  Engine.Sim.on_event sim (fun _ -> total := !total + Engine.Sim.queue_length sim);
  Engine.Sim.run sim ~until:sc.duration;
  let n = Engine.Sim.events_run sim in
  (n, float_of_int !total /. float_of_int (max 1 n))

(* [len] self-re-arming timers with exponential delays: exactly
   [events] events at a heap size of [len]. *)
let timer_ring ~delays ~len ~events =
  let sim = Engine.Sim.create () in
  let fired = ref 0 and mask = Array.length delays - 1 in
  for i = 0 to len - 1 do
    let tm = Engine.Sim.Timer.create sim ignore in
    Engine.Sim.Timer.set_action tm (fun () ->
        incr fired;
        if !fired <= events - len then
          Engine.Sim.Timer.set tm ~delay:delays.(!fired land mask));
    Engine.Sim.Timer.set tm ~delay:delays.(i land mask)
  done;
  span "engine.Sim.run" (fun () -> Engine.Sim.run_to_completion sim);
  Engine.Sim.events_run sim

(* Each connection keeps a fixed window of data packets in flight, its
   share of the buffer, and the far host echoes an ACK for each; the
   buffers are infinite, so nothing drops. *)
let echo_run (sc : S.t) =
  let sim = Engine.Sim.create () in
  let db =
    span "net.Topology.dumbbell" (fun () ->
        Net.Topology.dumbbell sim (params sc None))
  in
  let net = db.net in
  let per_dir d = List.length (List.filter (fun (c : S.conn_spec) -> c.dir = d) sc.conns) in
  List.iteri
    (fun i (spec : S.conn_spec) ->
      let conn = i + 1 and src, dst = endpoints db spec in
      let window = max 1 (Option.value sc.buffer ~default:20 / per_dir spec.dir) in
      let send ~kind ~seq ~size ~src ~dst =
        Net.Network.send_from_host net ~host:src
          (Net.Network.make_packet net ~conn ~kind ~seq ~size ~src ~dst
             ~retransmit:false)
      in
      let next = ref 0 in
      let data () =
        send ~kind:Net.Packet.Data ~seq:!next ~size:500 ~src ~dst;
        incr next
      in
      Net.Network.register_endpoint net ~host:dst ~conn (fun p ->
          send ~kind:Net.Packet.Ack ~seq:(p.seq + 1) ~size:spec.ack_size ~src:dst
            ~dst:src);
      Net.Network.register_endpoint net ~host:src ~conn (fun _ -> data ());
      ignore
        (Engine.Sim.at sim ~time:spec.start_time (fun () ->
             for _ = 1 to window do data () done)
          : Engine.Sim.handle))
    sc.conns;
  span "engine.Sim.run" (fun () -> Engine.Sim.run sim ~until:sc.duration);
  Engine.Sim.events_run sim

(* ------------------------------------------------------------------ *)
(* The ledger                                                          *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let retained_bytes f =
  Gc.full_major ();
  let before = (Gc.stat ()).live_words in
  let v = f () in
  Gc.full_major ();
  let after = (Gc.stat ()).live_words in
  ignore (Sys.opaque_identity v);
  float_of_int ((after - before) * (Sys.word_size / 8))

let dispatch_us backend =
  let tasks = List.init 512 Fun.id in
  let run () = ignore (Sweep_pool.map ~backend ~jobs:2 Fun.id tasks : int list) in
  run ();
  1e6 *. Clock.median (List.init 5 (fun _ -> snd (Clock.time run))) /. 512.

let run ~min_rounds ~seconds ~seed (scs : S.t list) =
  let runner ?obs sc = span "core.Runner.run" (fun () -> Core.Runner.run ?obs sc) in
  let over f () = sum f scs in
  let runs obs = over (fun sc -> Workloads.events_of (runner ~obs sc)) in
  let timed f () = f in
  let profiles = List.map profile scs in
  let delays =
    let rng = Engine.Rng.create ~seed in
    Array.init 1024 (fun _ -> Engine.Rng.exponential rng ~mean:0.01)
  in
  let ring () =
    sum
      (fun (events, qlen) ->
        timer_ring ~delays ~len:(max 1 (Float.to_int (Float.round qlen))) ~events)
      profiles
  in
  let trace_into buf sc =
    Buffer.clear buf;
    runner ~obs:(Obs.Probe.setup ~flowstats:true ~btrace:(Buffer.add_string buf) ()) sc
  in
  let traces =
    List.map
      (fun sc ->
        let buf = Buffer.create 65536 in
        ignore (trace_into buf sc : Core.Runner.result);
        Buffer.contents buf)
      scs
  in
  let decode data =
    match span "obs.Btrace.read" (fun () -> Obs.Btrace.read data) with
    | Ok f -> f.items
    | Error e -> failwith ("Btrace.read: " ^ e)
  in
  let fed items =
    let fs = Obs.Flowstats.create () in
    span "obs.Flowstats.feed" (fun () -> List.iter (Obs.Flowstats.feed fs) items);
    fs
  in
  let points = List.length scs in
  (* Rows timed on the results a sweep point produces. *)
  let on_results f () =
    let results = List.map (runner ~obs:(Obs.Probe.setup ())) scs in
    fun () ->
      List.iter f results;
      points
  in
  let pts = List.map (fun sc -> Sweep.Driver.point sc) scs in
  let buf = Buffer.create 65536 in
  let entries =
    measure_all ~min_rounds ~seconds
      [
        { name = "engine"; base = None; prepare = timed ring };
        { name = "net"; base = Some "engine"; prepare = timed (over echo_run) };
        { name = "tcp"; base = Some "net"; prepare = timed (over tcp_run) };
        { name = "runner"; base = Some "tcp"; prepare = timed (runs Obs.Probe.disabled) };
        {
          name = "validate";
          base = Some "runner";
          prepare =
            timed
              (over (fun sc -> Workloads.events_of (runner (Workloads.validating sc))));
        };
        {
          name = "metrics";
          base = Some "runner";
          prepare = timed (runs (Obs.Probe.setup ()));
        };
        {
          name = "flowstats";
          base = Some "metrics";
          prepare = timed (runs (Obs.Probe.setup ~flowstats:true ()));
        };
        {
          name = "btrace";
          base = Some "flowstats";
          prepare =
            timed (over (fun sc -> Workloads.events_of (trace_into buf sc)));
        };
        {
          name = "read";
          base = None;
          prepare = timed (fun () -> sum (fun d -> List.length (decode d)) traces);
        };
        {
          name = "feed";
          base = None;
          prepare =
            (fun () ->
              let items = List.map decode traces in
              fun () -> sum (fun its -> ignore (fed its : Obs.Flowstats.t); List.length its) items);
        };
        {
          name = "stats_json";
          base = None;
          prepare =
            (fun () ->
              let stats = List.map (fun d -> fed (decode d)) traces in
              fun () ->
                List.iter
                  (fun fs ->
                    ignore
                      (span "obs.Flowstats.to_json" (fun () -> Obs.Flowstats.to_json fs)
                        : string))
                  stats;
                points);
        };
        {
          name = "setup";
          base = None;
          prepare =
            timed (fun () ->
                List.iter
                  (fun (sc : S.t) ->
                    ignore (runner { sc with duration = 0.; warmup = 0. } : Core.Runner.result))
                  scs;
                points);
        };
        {
          name = "summary";
          base = None;
          prepare =
            on_results (fun r ->
                ignore
                  (span "sweep.Summary.of_result" (fun () ->
                       Sweep.Summary.of_result ~id:"p" r)
                    : Sweep.Summary.t));
        };
        {
          name = "queue_phase";
          base = None;
          prepare =
            on_results (fun r ->
                ignore
                  (span "analysis.Sync.classify" (fun () -> Core.Runner.queue_phase r)
                    : Analysis.Sync.phase * float));
        };
        {
          name = "epochs";
          base = None;
          prepare =
            on_results (fun r ->
                ignore
                  (span "analysis.Epochs.detect" (fun () -> Core.Runner.epochs r)
                    : Analysis.Epochs.t list));
        };
        {
          name = "driver";
          base = Some "metrics";
          prepare =
            timed (fun () ->
                sum
                  (fun (s : Sweep.Summary.t) ->
                    int_of_float (List.assoc "sim.events" s.metrics))
                  (span "sweep.Driver.run" (fun () -> Sweep.Driver.run ~jobs:1 pts)));
        };
      ]
  in
  let row = find entries in
  let us_per n = 1e6 *. (row n).seconds /. float_of_int (row n).count in
  let driver_overhead_us =
    1e6 *. ((row "driver").seconds -. (row "metrics").seconds) /. float_of_int points
    -. us_per "summary"
  in
  let retained =
    retained_bytes (fun () -> List.map (fun sc -> Core.Runner.run sc) scs)
  in
  (* Fork before the first domain: an OCaml 5 process that has spawned
     a domain can no longer fork. *)
  let fork_us = span "sweep.Sweep_pool.map" (fun () -> dispatch_us Sweep_pool.Fork) in
  let domain_us = span "sweep.Sweep_pool.map" (fun () -> dispatch_us Sweep_pool.Domain) in
  (* Exact counts of the workload's runs. *)
  let results = List.map (fun sc -> Core.Runner.run sc) scs in
  let links =
    List.concat_map
      (fun (r : Core.Runner.result) -> Net.Network.links r.dumbbell.net)
      results
  in
  let senders =
    List.concat_map
      (fun (r : Core.Runner.result) ->
        Array.to_list (Array.map (fun (_, c) -> Tcp.Connection.sender c) r.conns))
      results
  in
  let lsum f = sum (fun l -> f (Net.Link.counters l)) links in
  let ssum f = sum f senders in
  let departed = lsum (fun c -> c.dep_data + c.dep_ack) in
  let dropped = lsum (fun c -> c.drop_data + c.drop_ack) in
  let offered = lsum (fun c -> c.enq_data + c.enq_ack) + dropped in
  let rtx = ssum Tcp.Sender.retransmits in
  let firsts = ssum Tcp.Sender.data_sent in
  let events = (row "runner").count in
  let qlen_mean =
    List.fold_left (fun acc (n, q) -> acc +. (float_of_int n *. q)) 0. profiles
    /. float_of_int (sum fst profiles)
  in
  let m name value unit_ = { name; value; unit_ } in
  let ns = delta entries ns_per and words = delta entries words_per in
  ( entries,
    [
      m "engine.ns_per_event" (ns "engine") "ns";
      m "engine.minor_words_per_event" (words "engine") "words";
      m "engine.queue_len_mean" qlen_mean "count";
      m "net.ns_per_event" (ns "net") "ns";
      m "net.minor_words_per_event" (words "net") "words";
      m "tcp.ns_per_event" (ns "tcp") "ns";
      m "tcp.minor_words_per_event" (words "tcp") "words";
      m "trace.ns_per_event" (ns "runner") "ns";
      m "trace.minor_words_per_event" (words "runner") "words";
      m "trace.retained_bytes_per_event" (retained /. float_of_int events) "B";
      m "core.runner_ns_per_event" (ns_per (row "runner")) "ns";
      m "core.setup_us" (us_per "setup") "us";
      m "validate.ns_per_event" (ns "validate") "ns";
      m "obs.metrics_ns_per_event" (ns "metrics") "ns";
      m "obs.flowstats_ns_per_event" (ns "flowstats") "ns";
      m "obs.btrace_ns_per_event" (ns "btrace") "ns";
      m "obs.btrace_bytes_per_record"
        (float_of_int (sum String.length traces) /. float_of_int (row "read").count)
        "B";
      m "obs.read_ns_per_record" (ns_per (row "read")) "ns";
      m "obs.read_words_per_record" (words_per (row "read")) "words";
      m "obs.feed_ns_per_record" (ns_per (row "feed")) "ns";
      m "obs.stats_json_us" (us_per "stats_json") "us";
      m "sweep.summary_us_per_point" (us_per "summary") "us";
      m "analysis.queue_phase_us_per_point" (us_per "queue_phase") "us";
      m "analysis.epochs_us_per_point" (us_per "epochs") "us";
      m "sweep.driver_overhead_us_per_point" driver_overhead_us "us";
      m "sweep.fork_dispatch_us_per_point" fork_us "us";
      m "sweep.domain_dispatch_us_per_point" domain_us "us";
      m "engine.events" (float_of_int events) "count";
      m "net.pkts_departed" (float_of_int departed) "count";
      m "net.drop_ratio" (float_of_int dropped /. float_of_int offered) "ratio";
      m "tcp.retransmit_ratio" (float_of_int rtx /. float_of_int (rtx + firsts)) "ratio";
      m "tcp.timeouts" (float_of_int (ssum Tcp.Sender.timeouts)) "count";
      m "tcp.fast_retransmits" (float_of_int (ssum Tcp.Sender.fast_retransmits)) "count";
    ] )
