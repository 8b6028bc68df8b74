(* The files and text the CLI writes from a run's traces, pinned by MD5:
   every CSV of `netsim dump --dir`, the files of `netsim run --csv`,
   and the stdout of `netsim plot fig45` and `fig67`.  A command that
   stops asking its run for a log it prints fails here rather than in a
   user's hands.  The examples are programs a user copies from, so each
   must still run to exit 0. *)

let hex s = Digest.to_hex (Digest.string s)

let netsim () =
  match Test_sweep.netsim with
  | Some exe -> exe
  | None -> Alcotest.fail "netsim.exe not built"

(* [exe args] with stdout to [out] and stderr discarded: the exit code. *)
let spawn exe args ~out =
  let fd_out =
    Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
  in
  let fd_err = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin fd_out
      fd_err
  in
  Unix.close fd_out;
  Unix.close fd_err;
  match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> -1

let rec remove path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* A fresh directory: [Filename.temp_file] reserves a unique name, which
   then becomes the directory. *)
let with_temp_dir f =
  let dir = Filename.temp_file "netsim-pins" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> remove dir) (fun () -> f dir)

(* One "name md5" line per file under [dir], in name order. *)
let manifest dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun f ->
         f ^ " " ^ hex (Test_sweep.read_file (Filename.concat dir f)))
  |> String.concat "\n"

(* Run netsim, expect exit 0, and compare the MD5 of the manifest of
   the directory it wrote; the manifest goes to stderr on a mismatch. *)
let check_dir ~what ~md5 args =
  with_temp_dir @@ fun dir ->
  let out = Filename.concat dir "stdout" in
  let files = Filename.concat dir "files" in
  Alcotest.(check int) (what ^ " exits 0") 0
    (spawn (netsim ()) (args files) ~out);
  let m = manifest files in
  if hex m <> md5 then prerr_endline m;
  Alcotest.(check string) (what ^ " files") md5 (hex m)

let test_dump () =
  check_dir ~what:"dump" ~md5:"9fa51c85d27181cd697841300870d16d" (fun dir ->
      [ "dump"; "--dir"; dir ])

let test_run_csv () =
  check_dir ~what:"run --csv" ~md5:"b1aa4df315bfd86a7ca5aaf7bcb7148f"
    (fun dir ->
      [ "run"; "--fwd"; "2"; "--rev"; "1"; "--tau"; "0.01"; "--buffer"; "20";
        "--duration"; "120"; "--warmup"; "40"; "--csv"; dir ])

let test_plot fig md5 () =
  with_temp_dir @@ fun dir ->
  let out = Filename.concat dir "stdout" in
  Alcotest.(check int) ("plot " ^ fig ^ " exits 0") 0
    (spawn (netsim ()) [ "plot"; fig ] ~out);
  Alcotest.(check string) ("plot " ^ fig ^ " stdout") md5
    (hex (Test_sweep.read_file out))

let examples =
  [ "quickstart"; "two_way_dynamics"; "ack_compression"; "buffer_sizing";
    "phase_diagram"; "mode_atlas"; "fault_recovery" ]

(* Under `dune runtest` the cwd is _build/default/test. *)
let example_exe name =
  match
    List.find_opt Sys.file_exists
      [ Filename.concat (Filename.concat ".." "examples") (name ^ ".exe");
        Filename.concat "_build/default/examples" (name ^ ".exe") ]
  with
  | Some exe -> exe
  | None -> Alcotest.failf "%s.exe not built" name

let test_examples () =
  with_temp_dir @@ fun dir ->
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ " exits 0") 0
        (spawn (example_exe name) [] ~out:(Filename.concat dir name)))
    examples

let suite =
  ( "cli pins",
    [
      Alcotest.test_case "dump --dir CSVs pinned" `Quick test_dump;
      Alcotest.test_case "run --csv files pinned" `Quick test_run_csv;
      Alcotest.test_case "plot fig45 stdout pinned" `Quick
        (test_plot "fig45" "aec00a969758a0f8d1dc2b5d4b6e9201");
      Alcotest.test_case "plot fig67 stdout pinned" `Quick
        (test_plot "fig67" "7a60ce67133ac574b82adc3117366d1d");
      Alcotest.test_case "every example exits 0" `Quick test_examples;
    ] )
