(* Order statistics over per-job samples. *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let sum xs = List.fold_left ( +. ) 0.0 xs
let mean xs = match xs with [] -> 0.0 | _ -> sum xs /. float_of_int (List.length xs)

(* The highest percentile with at least 10 samples above it (nearest
   rank): [Some (percentile, value)] when there are at least 20 samples. *)
let tail xs =
  let n = List.length xs in
  if n < 20 then None
  else
    let a = Array.of_list (sorted xs) in
    let k = n - 10 in
    Some (100 * k / n, a.(k - 1))

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
