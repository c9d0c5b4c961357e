type t = { scale : float array; min_step : float array; max_step : float array }

let create ~n ~initial ~min_step ~max_step =
  if Array.length initial <> n || Array.length min_step <> n || Array.length max_step <> n then
    invalid_arg "Range.create: dimension mismatch";
  { scale = Array.copy initial; min_step; max_step }

let step t i = t.scale.(i)

(* Asymmetric gains biased so the equilibrium acceptance sits near 0.44:
   0.44 * log(grow) + 0.56 * log(shrink) = 0. *)
let grow = 1.06
let shrink = 0.956

let record t i ~accepted =
  let s = t.scale.(i) *. (if accepted then grow else shrink) in
  t.scale.(i) <- Float.max t.min_step.(i) (Float.min t.max_step.(i) s)
