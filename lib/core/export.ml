let with_out path f =
  let oc = open_out path in
  (try f oc
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc

(* Shortest spelling that parses back to the same float, so a CSV
   round-trips bit for bit. *)
let num = Obs.Json.float_repr

let series_csv ~path ?(header = ("time", "value")) series =
  with_out path (fun oc ->
      let a, b = header in
      Printf.fprintf oc "%s,%s\n" a b;
      Trace.Series.iter series ~f:(fun ~time ~value ->
          Printf.fprintf oc "%s,%s\n" (num time) (num value)))

let dep_log_csv ~path dep =
  with_out path (fun oc ->
      output_string oc "time,conn,kind,seq\n";
      List.iter
        (fun (r : Trace.Dep_log.record) ->
          Printf.fprintf oc "%s,%d,%s,%d\n" (num r.time) r.conn
            (Net.Packet.kind_to_string r.kind)
            r.seq)
        (Trace.Dep_log.records dep))

let drops_csv ~path drops =
  with_out path (fun oc ->
      output_string oc "time,conn,kind,seq,link\n";
      List.iter
        (fun (r : Trace.Drop_log.record) ->
          Printf.fprintf oc "%s,%d,%s,%d,%d\n" (num r.time) r.conn
            (Net.Packet.kind_to_string r.kind)
            r.seq r.link)
        (Trace.Drop_log.records drops))

let ensure_dir dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let run_csv ~dir ~prefix (r : Runner.result) =
  ensure_dir dir;
  let files = ref [] in
  let emit name write =
    let path = Filename.concat dir (prefix ^ "-" ^ name) in
    write path;
    files := path :: !files
  in
  emit "q1.csv" (fun path ->
      series_csv ~path ~header:("time", "queue_len")
        (Trace.Queue_trace.series r.q1));
  emit "q2.csv" (fun path ->
      series_csv ~path ~header:("time", "queue_len")
        (Trace.Queue_trace.series r.q2));
  Array.iteri
    (fun i trace ->
      emit
        (Printf.sprintf "cwnd%d.csv" (i + 1))
        (fun path ->
          series_csv ~path ~header:("time", "cwnd") (Trace.Cwnd_trace.cwnd trace)))
    r.cwnds;
  emit "drops.csv" (fun path -> drops_csv ~path r.drops);
  List.rev !files
