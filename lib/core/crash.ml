(* Crash bundles.

   A bundle captures everything needed to re-instantiate a failed or
   budget-killed run deterministically: the full scenario value
   (Marshal — Scenario.t is plain data, including CC specs, RTO params,
   discipline kind and fault specs, and carries every seed), plus a
   meta.json describing what happened (kind, reason, exception text and
   backtrace, engine counters, budgets) and the MD5 of scenario.bin.
   [netsim replay] loads the bundle, re-runs the scenario and checks the
   outcome matches.  Unmarshaling unchecked bytes can crash the process,
   so [load] compares the digest first. *)

type meta = {
  scenario_name : string;
  kind : string;
  reason : string;
  exn_text : string option;
  backtrace : string option;
  validation : string option;
  events_run : int;
  queue_length : int;
  sim_now : float;
  max_events : int option;
  max_wall : float option;
  scenario_md5 : string;
}

let format_tag = "netsim-bundle-v2"
let meta_file = "meta.json"
let scenario_file = "scenario.bin"

let kind_exception = "exception"
let kind_validation = "validation"
let kind_event_budget = "event-budget"
let kind_wall_budget = "wall-budget"
let kind_interrupt = "interrupt"

let kind_of_stop (reason : Engine.Sim.stop_reason) =
  match reason with
  | Engine.Sim.Completed -> invalid_arg "Crash.kind_of_stop: Completed"
  | Engine.Sim.Event_budget _ -> kind_event_budget
  | Engine.Sim.Wall_budget _ -> kind_wall_budget
  | Engine.Sim.Stop_requested -> kind_interrupt

(* ------------------------------------------------------------------ *)
(* meta.json rendering / parsing                                       *)
(* ------------------------------------------------------------------ *)

let str_or_null = function
  | None -> "null"
  | Some s -> "\"" ^ Obs.Json.escape s ^ "\""

let int_or_null = function
  | None -> "null"
  | Some i -> string_of_int i

let float_or_null = function
  | None -> "null"
  | Some f -> Obs.Json.float_repr f

let meta_to_json m =
  Printf.sprintf
    "{\"format\":\"%s\",\"scenario\":\"%s\",\"kind\":\"%s\",\
     \"reason\":\"%s\",\"exn\":%s,\"backtrace\":%s,\"validation\":%s,\
     \"events_run\":%d,\"queue_length\":%d,\"sim_now\":%.17g,\
     \"max_events\":%s,\"max_wall\":%s,\"scenario_md5\":\"%s\"}\n"
    format_tag
    (Obs.Json.escape m.scenario_name)
    (Obs.Json.escape m.kind) (Obs.Json.escape m.reason)
    (str_or_null m.exn_text)
    (str_or_null m.backtrace)
    (str_or_null m.validation)
    m.events_run m.queue_length m.sim_now
    (int_or_null m.max_events)
    (float_or_null m.max_wall)
    (Obs.Json.escape m.scenario_md5)

let meta_of_json text =
  match Obs.Json.parse text with
  | Error msg -> Error ("meta.json: " ^ msg)
  | Ok json -> (
    let str k = Option.bind (Obs.Json.member k json) Obs.Json.to_string in
    let num k = Option.bind (Obs.Json.member k json) Obs.Json.to_float in
    match str "format" with
    | Some tag when tag = format_tag -> (
      match (str "scenario", str "kind", str "reason", str "scenario_md5") with
      | Some scenario_name, Some kind, Some reason, Some scenario_md5 ->
        Ok
          {
            scenario_name;
            kind;
            reason;
            exn_text = str "exn";
            backtrace = str "backtrace";
            validation = str "validation";
            events_run =
              (match num "events_run" with
               | Some f -> int_of_float f
               | None -> 0);
            queue_length =
              (match num "queue_length" with
               | Some f -> int_of_float f
               | None -> 0);
            sim_now = (match num "sim_now" with Some f -> f | None -> 0.);
            max_events = Option.map int_of_float (num "max_events");
            max_wall = num "max_wall";
            scenario_md5;
          }
      | _ -> Error "meta.json: missing scenario/kind/reason/scenario_md5")
    | Some tag -> Error ("meta.json: unknown format " ^ tag)
    | None -> Error "meta.json: missing format tag")

(* ------------------------------------------------------------------ *)
(* Write / load                                                        *)
(* ------------------------------------------------------------------ *)

let bundle_path ~dir (scenario : Scenario.t) =
  Filename.concat dir scenario.name

let rec mkdirs dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdirs parent;
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.is_directory dir -> ()
  end

let write_file dir name content =
  let oc = open_out_bin (Filename.concat dir name) in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc content)

let read_file dir name =
  let path = Filename.concat dir name in
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try Ok (really_input_string ic (in_channel_length ic))
        with End_of_file | Sys_error _ ->
          Error ("unreadable file: " ^ path))

let write ~dir ~(scenario : Scenario.t) ~sim ~kind ~reason ?exn_text
    ?backtrace ?validation ?flight_text ?metrics_json ?max_events ?max_wall
    () =
  try
    let blob = Marshal.to_string scenario [] in
    let meta =
      {
        scenario_name = scenario.name;
        kind;
        reason;
        exn_text;
        backtrace;
        validation;
        events_run = Engine.Sim.events_run sim;
        queue_length = Engine.Sim.queue_length sim;
        sim_now = Engine.Sim.now sim;
        max_events;
        max_wall;
        scenario_md5 = Digest.to_hex (Digest.string blob);
      }
    in
    let dir = bundle_path ~dir scenario in
    mkdirs dir;
    write_file dir meta_file (meta_to_json meta);
    write_file dir scenario_file blob;
    Option.iter (write_file dir "flight.txt") flight_text;
    Option.iter (write_file dir "metrics.json") metrics_json;
    Ok dir
  with
  | Sys_error msg -> Error msg
  | e -> Error (Printexc.to_string e)

let ( let* ) = Result.bind

let load dir =
  let* meta_json = read_file dir meta_file in
  let* meta = meta_of_json meta_json in
  let* blob = read_file dir scenario_file in
  if Digest.to_hex (Digest.string blob) <> meta.scenario_md5 then
    Error "scenario.bin: digest does not match meta.json"
  else
    match (Marshal.from_string blob 0 : Scenario.t) with
    | exception e -> Error ("scenario.bin: " ^ Printexc.to_string e)
    | scenario -> Ok (scenario, meta)
