type check = {
  metric : string;
  paper : string;
  measured : string;
  pass : bool option;
}

type outcome = { id : string; title : string; checks : check list }

let info ~metric ~paper ~measured = { metric; paper; measured; pass = None }

let in_band ~metric ~paper ~value ~lo ~hi =
  {
    metric;
    paper;
    measured = Printf.sprintf "%.3g" value;
    pass = Some (value >= lo && value <= hi);
  }

let expect ~metric ~paper ~measured pass =
  { metric; paper; measured; pass = Some pass }

let all_passed outcome =
  List.for_all
    (fun c -> match c.pass with Some false -> false | _ -> true)
    outcome.checks

let failed_checks outcome =
  List.filter (fun c -> c.pass = Some false) outcome.checks

let pad width s =
  if String.length s >= width then s else s ^ String.make (width - String.length s) ' '

let pp ppf outcome =
  let widths =
    List.fold_left
      (fun (a, b, c) check ->
        ( max a (String.length check.metric),
          max b (String.length check.paper),
          max c (String.length check.measured) ))
      (String.length "metric", String.length "paper", String.length "measured")
      outcome.checks
  in
  let w1, w2, w3 = widths in
  Format.fprintf ppf "=== %s: %s ===@." outcome.id outcome.title;
  Format.fprintf ppf "%s  %s  %s  %s@." (pad w1 "metric") (pad w2 "paper")
    (pad w3 "measured") "verdict";
  List.iter
    (fun check ->
      let verdict =
        match check.pass with
        | None -> "-"
        | Some true -> "ok"
        | Some false -> "FAIL"
      in
      Format.fprintf ppf "%s  %s  %s  %s@." (pad w1 check.metric)
        (pad w2 check.paper) (pad w3 check.measured) verdict)
    outcome.checks

let print outcome = Format.printf "%a@." pp outcome

let check_to_json c =
  Printf.sprintf
    {|{"metric":"%s","paper":"%s","measured":"%s","pass":%s}|}
    (Obs.Json.escape c.metric) (Obs.Json.escape c.paper)
    (Obs.Json.escape c.measured)
    (match c.pass with
     | None -> "null"
     | Some true -> "true"
     | Some false -> "false")

let to_json outcome =
  Printf.sprintf {|{"id":"%s","title":"%s","passed":%b,"checks":[%s]}|}
    (Obs.Json.escape outcome.id) (Obs.Json.escape outcome.title)
    (all_passed outcome)
    (String.concat "," (List.map check_to_json outcome.checks))

let list_to_json outcomes =
  "[" ^ String.concat "," (List.map to_json outcomes) ^ "]"

let summary_line outcome =
  let total = List.length outcome.checks in
  let checked =
    List.length (List.filter (fun c -> c.pass <> None) outcome.checks)
  in
  let passed =
    List.length (List.filter (fun c -> c.pass = Some true) outcome.checks)
  in
  Printf.sprintf "%-10s %d/%d checks passed (%d informational)  %s" outcome.id
    passed checked (total - checked)
    (if all_passed outcome then "PASS" else "FAIL")
