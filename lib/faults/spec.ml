type loss =
  | Bernoulli of float
  | Gilbert_elliott of {
      p_enter : float;
      p_exit : float;
      loss_in_burst : float;
      loss_outside : float;
    }

type outage = {
  windows : (float * float) list;
  flap : (float * float) option;
}

type jitter = { bound : float; preserve_order : bool }

type t = {
  loss : loss option;
  outage : outage option;
  jitter : jitter option;
  duplicate : float option;
}

let none = { loss = None; outage = None; jitter = None; duplicate = None }

let check_prob what p =
  if not (p >= 0. && p <= 1.) then
    invalid_arg (Printf.sprintf "Faults.Spec: %s must be in [0, 1]" what)

let check_loss = function
  | Bernoulli p -> check_prob "loss probability" p
  | Gilbert_elliott { p_enter; p_exit; loss_in_burst; loss_outside } ->
    check_prob "burst entry probability" p_enter;
    check_prob "burst exit probability" p_exit;
    check_prob "in-burst loss probability" loss_in_burst;
    check_prob "outside-burst loss probability" loss_outside

let check_outage { windows; flap } =
  let rec check_windows prev = function
    | [] -> ()
    | (start, stop) :: rest ->
      if not (start >= prev && stop > start) then
        invalid_arg
          "Faults.Spec: outage windows must be (start, stop) with \
           0 <= start < stop, in ascending non-overlapping order";
      check_windows stop rest
  in
  check_windows 0. windows;
  match flap with
  | Some (mean_up, mean_down) when mean_up <= 0. || mean_down <= 0. ->
    invalid_arg "Faults.Spec: flap means must be positive"
  | _ -> ()

let check_jitter { bound; preserve_order = _ } =
  if bound < 0. then invalid_arg "Faults.Spec: jitter bound must be >= 0"

let make ?loss ?outage ?jitter ?duplicate () =
  Option.iter check_loss loss;
  Option.iter check_outage outage;
  Option.iter check_jitter jitter;
  Option.iter (check_prob "duplication probability") duplicate;
  { loss; outage; jitter; duplicate }

let bernoulli p = make ~loss:(Bernoulli p) ()

let burst ?(loss_outside = 0.) ~p_enter ~p_exit ~loss_in_burst () =
  make ~loss:(Gilbert_elliott { p_enter; p_exit; loss_in_burst; loss_outside })
    ()

let scheduled_outage windows = make ~outage:{ windows; flap = None } ()

let jitter ?(preserve_order = true) bound =
  make ~jitter:{ bound; preserve_order } ()

let duplicate p = make ~duplicate:p ()

let merge a b =
  let pick what x y =
    match (x, y) with
    | Some _, Some _ ->
      invalid_arg
        (Printf.sprintf "Faults.Spec.merge: both specs define %s" what)
    | (Some _ as s), None | None, s -> s
  in
  {
    loss = pick "a loss model" a.loss b.loss;
    outage = pick "an outage" a.outage b.outage;
    jitter = pick "jitter" a.jitter b.jitter;
    duplicate = pick "duplication" a.duplicate b.duplicate;
  }

let is_noop t =
  (match t.loss with
   | None | Some (Bernoulli 0.) -> true
   | Some (Gilbert_elliott { loss_in_burst; loss_outside; _ }) ->
     loss_in_burst = 0. && loss_outside = 0.
   | Some (Bernoulli _) -> false)
  && (match t.outage with
      | None -> true
      | Some { windows; flap } -> windows = [] && flap = None)
  && (match t.jitter with None | Some { bound = 0.; _ } -> true | Some _ -> false)
  && match t.duplicate with None | Some 0. -> true | Some _ -> false

let to_string t =
  let parts =
    List.filter_map Fun.id
      [
        Option.map
          (function
            | Bernoulli p -> Printf.sprintf "loss=%g" p
            | Gilbert_elliott { p_enter; p_exit; loss_in_burst; loss_outside }
              ->
              Printf.sprintf "burst-loss=%g/%g/%g/%g" p_enter p_exit
                loss_in_burst loss_outside)
          t.loss;
        Option.map
          (fun { windows; flap } ->
            let w =
              List.map
                (fun (a, b) -> Printf.sprintf "[%g,%g)" a b)
                windows
            in
            let f =
              match flap with
              | Some (up, down) -> [ Printf.sprintf "flap=%g/%g" up down ]
              | None -> []
            in
            "outage=" ^ String.concat "" (w @ f))
          t.outage;
        Option.map
          (fun { bound; preserve_order } ->
            Printf.sprintf "jitter=%g%s" bound
              (if preserve_order then "" else "(reorder)"))
          t.jitter;
        Option.map (Printf.sprintf "dup=%g") t.duplicate;
      ]
  in
  match parts with [] -> "none" | parts -> String.concat " " parts
