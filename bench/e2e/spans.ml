(* In-memory span recorder for the traced (--trace) run.

   The benchmark wraps each call it makes into a layer's public API in
   [span "layer.Module.fn" f].  With recording off (every untraced run)
   [span] is a flag test plus the call, so the instrumented workload
   code is the same code the end-to-end numbers time.  Spans are kept in
   memory and written once, when the run ends. *)

type t = { id : int; name : string; parent : int; start : float; stop : float }

let recording = ref false
let finished : t list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0

let span name f =
  if not !recording then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    open_ids := id :: !open_ids;
    let start = Unix.gettimeofday () in
    let close () =
      let stop = Unix.gettimeofday () in
      open_ids := List.tl !open_ids;
      finished := { id; name; parent; start; stop } :: !finished
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

(* Layer of a span: its name up to the first dot ("engine.Sim.run" ->
   "engine"). *)
let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* A span's self time is its duration minus the part its children
   cover; children never overlap (the recorder is single-threaded), so
   that part is the sum of their durations.  Returns (layer, seconds)
   in first-seen order. *)
let self_times spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (Option.value ~default:0. (Hashtbl.find_opt child s.parent)
          +. (s.stop -. s.start)))
    spans;
  let order = ref [] and total = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let l = layer s.name in
      let self =
        s.stop -. s.start
        -. Option.value ~default:0. (Hashtbl.find_opt child s.id)
      in
      (match Hashtbl.find_opt total l with
       | None -> order := l :: !order
       | Some _ -> ());
      Hashtbl.replace total l
        (self +. Option.value ~default:0. (Hashtbl.find_opt total l)))
    spans;
  List.rev_map (fun l -> (l, Hashtbl.find total l)) !order

(* Every closed span, in opening order. *)
let recorded () = List.sort (fun a b -> compare a.id b.id) !finished

let to_json ~workload ~seed spans =
  let t0 = match spans with s :: _ -> s.start | [] -> 0. in
  let us t = Printf.sprintf "%.3f" (1e6 *. (t -. t0)) in
  let b = Buffer.create (64 * (List.length spans + 16)) in
  Printf.bprintf b "{\"workload\":\"%s\",\"seed\":%d,\"self_s\":{" workload seed;
  List.iteri
    (fun i (l, s) ->
      Printf.bprintf b "%s\"%s\":%s" (if i = 0 then "" else ",") l
        (Obs.Json.float_repr s))
    (self_times spans);
  Buffer.add_string b "},\"spans\":[";
  List.iteri
    (fun i s ->
      Printf.bprintf b
        "%s\n{\"id\":%d,\"name\":\"%s\",\"parent\":%d,\"start_us\":%s,\"end_us\":%s}"
        (if i = 0 then "" else ",")
        s.id s.name s.parent (us s.start) (us s.stop))
    spans;
  Buffer.add_string b "]}\n";
  Buffer.contents b
