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

external format_float : string -> float -> string = "caml_format_float"

(* The spelling of [Printf.sprintf "%.9g"], without Printf's format
   interpreter: [%.9g] prints an integer below 1e9 as its digits, so
   those take [string_of_int] ([-0.] keeping its sign), and every other
   float goes to the C formatter [%g] itself calls.  NaN and the
   infinities are [null]. *)
let add_float b f =
  if Float.is_nan f || Float.abs f = Float.infinity then
    Buffer.add_string b "null"
  else if Float.is_integer f && Float.abs f < 1e9 then
    Buffer.add_string b
      (if Float.sign_bit f && f = 0. then "-0"
       else string_of_int (int_of_float f))
  else Buffer.add_string b (format_float "%.9g" f)

let add_opt_float b = function
  | None -> Buffer.add_string b "null"
  | Some f -> add_float b f

let add_int b n = Buffer.add_string b (string_of_int n)

let add_string b s =
  Buffer.add_char b '"';
  Buffer.add_string b (Obs.Json.escape s);
  Buffer.add_char b '"'

(* [x1,x2,...], each written by [add]. *)
let add_list b add xs =
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      add b x)
    xs

let add_fields b =
  add_list b (fun b (k, v) ->
      add_string b k;
      Buffer.add_char b ':';
      add_float b v)

let add_json b s =
  let field key add v =
    Buffer.add_string b key;
    add b v
  in
  field "{\"id\":" add_string s.id;
  field ",\"params\":{" add_fields s.params;
  field "},\"cc\":" add_string s.cc;
  field ",\"util_fwd\":" add_float s.util_fwd;
  field ",\"util_bwd\":" add_float s.util_bwd;
  field ",\"drops_window\":" add_int s.drops_window;
  field ",\"drops_total\":" add_int s.drops_total;
  field ",\"delivered\":[" (fun b -> add_list b add_int) s.delivered;
  field "],\"phase\":" add_string s.phase;
  field ",\"phase_corr\":" add_float s.phase_corr;
  field ",\"epochs\":" add_int s.epoch_count;
  field ",\"mean_drops_per_epoch\":" add_opt_float s.mean_drops_per_epoch;
  field ",\"single_loser\":" add_opt_float s.single_loser;
  field ",\"q1_max\":" add_float s.q1_max;
  field ",\"q2_max\":" add_float s.q2_max;
  field ",\"effective_pipe\":" add_opt_float s.effective_pipe;
  field ",\"jain\":" add_float s.jain;
  field ",\"fct_p50\":" add_opt_float s.fct_p50;
  field ",\"fct_p99\":" add_opt_float s.fct_p99;
  field ",\"metrics\":{" add_fields s.metrics;
  Buffer.add_string b "}}"

let to_json s =
  let b = Buffer.create 4096 in
  add_json b s;
  Buffer.contents b

let list_to_json summaries =
  let b = Buffer.create 4096 in
  Buffer.add_char b '[';
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n ";
      add_json b s)
    summaries;
  Buffer.add_string b "]\n";
  Buffer.contents b
