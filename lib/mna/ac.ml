let solve_at lin ~b ~w =
  let zm = La.Zmat.of_real_pair lin.Linearize.g lin.Linearize.c w in
  let zb = Array.map La.Cpx.of_float b in
  La.Zmat.solve zm zb

let transfer lin ~b ~sel ~w =
  let x = solve_at lin ~b ~w in
  let acc = ref La.Cpx.zero in
  Array.iteri (fun k s -> if s <> 0.0 then acc := La.Cpx.add !acc (La.Cpx.scale s x.(k))) sel;
  !acc

let sweep lin ~b ~sel freqs =
  Array.map (fun f -> transfer lin ~b ~sel ~w:(2.0 *. Float.pi *. f)) freqs

let dc_gain lin ~b ~sel = (transfer lin ~b ~sel ~w:0.0).La.Cpx.re

let mag lin ~b ~sel f = La.Cpx.abs (transfer lin ~b ~sel ~w:(2.0 *. Float.pi *. f))

(* Scan a log grid for the unity crossing, then bisect in log frequency. *)
let unity_gain_freq lin ~b ~sel =
  let fmin = 1.0 and fmax = 1e11 in
  let points = 221 in
  let fk k =
    fmin *. ((fmax /. fmin) ** (float_of_int k /. float_of_int (points - 1)))
  in
  let rec scan k prev =
    if k >= points then None
    else begin
      let f = fk k in
      let m = mag lin ~b ~sel f in
      match prev with
      | Some (fp, mp) when (mp -. 1.0) *. (m -. 1.0) <= 0.0 && mp > m ->
          (* Falling crossing: bisect. *)
          let rec bisect lo hi n =
            if n = 0 then Some (Float.sqrt (lo *. hi))
            else begin
              let mid = Float.sqrt (lo *. hi) in
              if mag lin ~b ~sel mid >= 1.0 then bisect mid hi (n - 1) else bisect lo mid (n - 1)
            end
          in
          bisect fp f 60
      | Some _ | None -> scan (k + 1) (Some (f, m))
    end
  in
  scan 0 None

(* Phase margin with phase unwrapping: track the phase continuously from
   1 Hz up to the unity-gain frequency [fu] (principal-value arg alone
   wraps for 3+ pole systems). The response is sign-normalized so that
   inverting amplifiers measure the same margin as their differential
   equivalents. *)
let phase_margin_at lin ~b ~sel ~fu =
  let sgn = if dc_gain lin ~b ~sel >= 0.0 then 1.0 else -1.0 in
  let h f = La.Cpx.scale sgn (transfer lin ~b ~sel ~w:(2.0 *. Float.pi *. f)) in
  let steps = 120 in
  let phase = ref (La.Cpx.arg (h 1.0)) in
  let prev = ref (h 1.0) in
  for k = 1 to steps do
    let f = fu ** (float_of_int k /. float_of_int steps) in
    let cur = h f in
    phase := !phase +. La.Cpx.arg (La.Cpx.div cur !prev);
    prev := cur
  done;
  180.0 +. (!phase *. 180.0 /. Float.pi)
