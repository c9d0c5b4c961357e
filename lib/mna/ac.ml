let solve_at lin ~b ~w =
  let zm = La.Zmat.of_real_pair lin.Linearize.g lin.Linearize.c w in
  let zb = Array.map La.Cpx.of_float b in
  La.Zmat.solve zm zb

(* One frequency scan's workspace: G + jwC is refilled in place at each
   frequency and the solve runs on the excitation's float planes, so a
   scan allocates once instead of once per frequency. *)
type workspace = {
  lin : Linearize.t;
  b : La.Vec.t;
  sel : La.Vec.t;
  z : La.Zmat.t;
  xr : float array;
  xi : float array;
}

let workspace lin ~b ~sel =
  let n = lin.Linearize.idx.Sysmat.size in
  { lin; b; sel; z = La.Zmat.create n n; xr = Array.make n 0.0; xi = Array.make n 0.0 }

(* sel . x(jw), summed as [transfer] sums the boxed solution. *)
let transfer_at s ~w =
  La.Zmat.set_real_pair s.z s.lin.Linearize.g s.lin.Linearize.c w;
  Array.blit s.b 0 s.xr 0 (Array.length s.xr);
  Array.fill s.xi 0 (Array.length s.xi) 0.0;
  La.Zmat.solve_in_place s.z s.xr s.xi;
  let re = ref 0.0 and im = ref 0.0 in
  Array.iteri
    (fun k sk ->
      if sk <> 0.0 then begin
        re := !re +. (sk *. s.xr.(k));
        im := !im +. (sk *. s.xi.(k))
      end)
    s.sel;
  { La.Cpx.re = !re; im = !im }

let transfer lin ~b ~sel ~w = transfer_at (workspace lin ~b ~sel) ~w

let sweep lin ~b ~sel freqs =
  let s = workspace lin ~b ~sel in
  Array.map (fun f -> transfer_at s ~w:(2.0 *. Float.pi *. f)) freqs

let dc_gain lin ~b ~sel = (transfer lin ~b ~sel ~w:0.0).La.Cpx.re

let mag s f = La.Cpx.abs (transfer_at s ~w:(2.0 *. Float.pi *. f))

(* Scan a log grid for the unity crossing, then bisect in log frequency. *)
let unity_gain_freq lin ~b ~sel =
  let s = workspace lin ~b ~sel in
  let fmin = 1.0 and fmax = 1e11 in
  let points = 221 in
  let fk k =
    fmin *. ((fmax /. fmin) ** (float_of_int k /. float_of_int (points - 1)))
  in
  let rec scan k prev =
    if k >= points then None
    else begin
      let f = fk k in
      let m = mag s f in
      match prev with
      | Some (fp, mp) when (mp -. 1.0) *. (m -. 1.0) <= 0.0 && mp > m ->
          (* Falling crossing: bisect. *)
          let rec bisect lo hi n =
            if n = 0 then Some (Float.sqrt (lo *. hi))
            else begin
              let mid = Float.sqrt (lo *. hi) in
              if mag s mid >= 1.0 then bisect mid hi (n - 1) else bisect lo mid (n - 1)
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
  let s = workspace lin ~b ~sel in
  let sgn = if (transfer_at s ~w:0.0).La.Cpx.re >= 0.0 then 1.0 else -1.0 in
  let h f = La.Cpx.scale sgn (transfer_at s ~w:(2.0 *. Float.pi *. f)) in
  let steps = 120 in
  let h1 = h 1.0 in
  let phase = ref (La.Cpx.arg h1) in
  let prev = ref h1 in
  for k = 1 to steps do
    let f = fu ** (float_of_int k /. float_of_int steps) in
    let cur = h f in
    phase := !phase +. La.Cpx.arg (La.Cpx.div cur !prev);
    prev := cur
  done;
  180.0 +. (!phase *. 180.0 /. Float.pi)

(* The first point of a 5% frequency ladder from 1 Hz below |H(0)|/sqrt 2. *)
let bandwidth_3db lin ~b ~sel =
  let s = workspace lin ~b ~sel in
  let a0 = Float.abs (transfer_at s ~w:0.0).La.Cpx.re in
  let target = a0 /. Float.sqrt 2.0 in
  let rec ladder f =
    if f > 1e12 then 1e12
    else if La.Cpx.abs (transfer_at s ~w:(2.0 *. Float.pi *. f)) < target then f
    else ladder (f *. 1.05)
  in
  ladder 1.0
