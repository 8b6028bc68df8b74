let name = "clock"

(* The last time sits in a float array, so storing it boxes nothing. *)
type t = { report : Report.t; last : float array }

let create report = { report; last = [| neg_infinity |] }

let regression t time =
  Report.add t.report ~time ~checker:name ~subject:"sim"
    ~detail:
      (if Float.is_nan time then "event clock is NaN"
       else
         Printf.sprintf "event clock went backwards: %g after %g" time
           t.last.(0))

(* [last] is never NaN, so the test fails exactly for a time that went
   backwards or is NaN.  Inlined, so a caller's unboxed time stays
   unboxed. *)
let[@inline] observe t time =
  if time >= t.last.(0) then t.last.(0) <- time else regression t time
