type t = {
  id : string;
  params : (string * float) list;
  cc : string;
  util_fwd : float;
  util_bwd : float;
  drops_window : int;
  drops_total : int;
  delivered : int list;
  phase : string;
  phase_corr : float;
  epoch_count : int;
  mean_drops_per_epoch : float option;
  single_loser : float option;
  q1_max : float;
  q2_max : float;
  effective_pipe : float option;
  jain : float;
  fct_p50 : float option;
  fct_p99 : float option;
  metrics : (string * float) list;
}

(* Distinct controller specs across the point's connections, first-use
   order ("tahoe" for a homogeneous classic run, "tahoe,fixed:w=30" for a
   mixed one). *)
let cc_of_conns conns =
  let seen = Hashtbl.create 4 in
  let names =
    Array.to_list conns
    |> List.filter_map (fun ((spec : Core.Scenario.conn_spec), _) ->
           let s = Tcp.Cc.spec_to_string spec.cc in
           if Hashtbl.mem seen s then None
           else begin
             Hashtbl.add seen s ();
             Some s
           end)
  in
  String.concat "," names

(* Flow-completion times of the point's sized flows, run through the
   same quantile sketch as [netsim trace stats], in connection order —
   determinism of the sketch makes the columns byte-identical across
   sweep backends and job counts. *)
let fct_quantiles conns =
  let sk = Obs.Sketch.create () in
  Array.iter
    (fun ((spec : Core.Scenario.conn_spec), c) ->
      match Tcp.Sender.completed_at (Tcp.Connection.sender c) with
      | Some t -> Obs.Sketch.add sk (t -. spec.start_time)
      | None -> ())
    conns;
  if Obs.Sketch.is_empty sk then (None, None)
  else (Obs.Sketch.quantile sk 0.5, Obs.Sketch.quantile sk 0.99)

let of_result ~id ?(params = []) (r : Core.Runner.result) =
  let phase, phase_corr = Core.Runner.queue_phase r in
  let epochs = Core.Runner.epochs r in
  let fct_p50, fct_p99 = fct_quantiles r.conns in
  {
    id;
    params;
    cc = cc_of_conns r.conns;
    util_fwd = r.util_fwd;
    util_bwd = r.util_bwd;
    drops_window = List.length (Core.Runner.drops_in_window r);
    drops_total = Trace.Drop_log.total r.drops;
    delivered = Array.to_list r.delivered;
    phase = Analysis.Sync.phase_to_string phase;
    phase_corr;
    epoch_count = List.length epochs;
    mean_drops_per_epoch = Analysis.Epochs.mean_drops epochs;
    single_loser = Analysis.Epochs.single_loser_fraction epochs;
    q1_max = Core.Runner.queue_peak r r.q1;
    q2_max = Core.Runner.queue_peak r r.q2;
    effective_pipe = Core.Runner.effective_pipe r;
    jain =
      Analysis.Fairness.jain (Array.map float_of_int r.delivered);
    fct_p50;
    fct_p99;
    metrics =
      (match r.obs with
       | Some probe -> Obs.Probe.final_metrics probe
       | None -> []);
  }

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

(* The sweep acceptance test diffs the bytes of --jobs 1 and --jobs N
   output, so the encoding must be a pure function of the summary values:
   fixed key order, fixed float formatting, no timestamps. *)

let float_json f =
  if Float.is_nan f || Float.abs f = Float.infinity then "null"
  else Printf.sprintf "%.9g" f

let opt_float_json = function None -> "null" | Some f -> float_json f

let to_json s =
  let params =
    String.concat ","
      (List.map
         (fun (k, v) ->
           Printf.sprintf "\"%s\":%s" (Obs.Json.escape k) (float_json v))
         s.params)
  in
  let delivered =
    String.concat "," (List.map string_of_int s.delivered)
  in
  let metrics =
    String.concat ","
      (List.map
         (fun (k, v) ->
           Printf.sprintf "\"%s\":%s" (Obs.Json.escape k) (float_json v))
         s.metrics)
  in
  Printf.sprintf
    "{\"id\":\"%s\",\"params\":{%s},\"cc\":\"%s\",\"util_fwd\":%s,\"util_bwd\":%s,\
     \"drops_window\":%d,\"drops_total\":%d,\"delivered\":[%s],\
     \"phase\":\"%s\",\"phase_corr\":%s,\"epochs\":%d,\
     \"mean_drops_per_epoch\":%s,\"single_loser\":%s,\
     \"q1_max\":%s,\"q2_max\":%s,\"effective_pipe\":%s,\
     \"jain\":%s,\"fct_p50\":%s,\"fct_p99\":%s,\
     \"metrics\":{%s}}"
    (Obs.Json.escape s.id) params (Obs.Json.escape s.cc)
    (float_json s.util_fwd) (float_json s.util_bwd)
    s.drops_window s.drops_total delivered (Obs.Json.escape s.phase)
    (float_json s.phase_corr) s.epoch_count
    (opt_float_json s.mean_drops_per_epoch)
    (opt_float_json s.single_loser)
    (float_json s.q1_max) (float_json s.q2_max)
    (opt_float_json s.effective_pipe)
    (float_json s.jain)
    (opt_float_json s.fct_p50)
    (opt_float_json s.fct_p99)
    metrics

let list_to_json summaries =
  "[" ^ String.concat ",\n " (List.map to_json summaries) ^ "]\n"
