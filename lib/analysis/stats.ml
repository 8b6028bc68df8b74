let check_nonempty name a =
  if Array.length a = 0 then invalid_arg (name ^ ": empty array")

let mean a =
  check_nonempty "Stats.mean" a;
  Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let pearson xs ys =
  let n = Array.length xs in
  if n = 0 || n <> Array.length ys then
    invalid_arg "Stats.pearson: length mismatch or empty";
  let mx = mean xs and my = mean ys in
  let sxy = ref 0. and sxx = ref 0. and syy = ref 0. in
  for i = 0 to n - 1 do
    let dx = xs.(i) -. mx and dy = ys.(i) -. my in
    sxy := !sxy +. (dx *. dy);
    sxx := !sxx +. (dx *. dx);
    syy := !syy +. (dy *. dy)
  done;
  if !sxx <= 1e-12 || !syy <= 1e-12 then 0.
  else !sxy /. sqrt (!sxx *. !syy)

let median a =
  check_nonempty "Stats.median" a;
  let b = Array.copy a in
  Array.sort compare b;
  let n = Array.length b in
  if n mod 2 = 1 then b.(n / 2) else (b.((n / 2) - 1) +. b.(n / 2)) /. 2.
