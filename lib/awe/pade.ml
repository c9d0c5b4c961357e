type rom = { poles : La.Cpx.t array; residues : La.Cpx.t array; q : int; scale : float }

(* Fit in a rescaled frequency domain: with s = w0 * s', the scaled moments
   are m'_k = m_k * w0^k and are O(1) near the dominant pole. *)
let pick_scale moments =
  if Array.length moments >= 2 && moments.(1) <> 0.0 && moments.(0) <> 0.0 then
    Float.abs (moments.(0) /. moments.(1))
  else 1.0

type scaled = { w0 : float; m : float array }

let scale_moments moments =
  let w0 = pick_scale moments in
  { w0; m = Array.mapi (fun k v -> v *. (w0 ** float_of_int k)) moments }

type coeffs = { qpoly : La.Poly.t; ppoly : La.Poly.t; w0 : float }

let fit_coeffs ~q (s : scaled) =
  if Array.length s.m < 2 * q then Error "pade: not enough moments"
  else if q < 1 then Error "pade: order must be >= 1"
  else begin
    let m = s.m in
    (* Solve for denominator coefficients a_1..a_q of
       Q(s) = 1 + a1 s + ... + aq s^q from the moment-cancellation rows. *)
    let a_mat = La.Mat.init q q (fun r c -> m.(q + r - (c + 1))) in
    let rhs = Array.init q (fun r -> -.m.(q + r)) in
    match La.Lu.factor_in_place a_mat with
    | exception La.Lu.Singular _ -> Error "pade: singular Hankel system"
    | lu ->
        let a = La.Lu.solve lu rhs in
        if not (Array.for_all Float.is_finite a) then Error "pade: non-finite fit"
        else begin
          let qpoly = Array.make (q + 1) 0.0 in
          qpoly.(0) <- 1.0;
          for j = 1 to q do
            qpoly.(j) <- a.(j - 1)
          done;
          (* Numerator: p_t = sum_{j=0..t} a_j m_(t-j), t < q, a_0 = 1. *)
          let ppoly =
            Array.init q (fun t ->
                let acc = ref m.(t) in
                for j = 1 to Int.min t q do
                  acc := !acc +. (qpoly.(j) *. m.(t - j))
                done;
                !acc)
          in
          Ok { qpoly; ppoly; w0 = s.w0 }
        end
  end

(* Power-series division: c_k of P/Q, compared against the scaled input
   moments — validates the fit without any root finding. *)
let series_matches c (s : scaled) ~q ~tol =
  let n = 2 * q in
  let m = s.m in
  let coef = Array.make n 0.0 in
  let ok = ref true in
  for k = 0 to n - 1 do
    let p_k = if k < Array.length c.ppoly then c.ppoly.(k) else 0.0 in
    let acc = ref p_k in
    for j = 1 to Int.min k (Array.length c.qpoly - 1) do
      acc := !acc -. (c.qpoly.(j) *. coef.(k - j))
    done;
    coef.(k) <- !acc;
    let scale = Float.abs m.(k) +. (1e-12 *. Float.abs m.(0)) +. 1e-300 in
    if Float.abs (coef.(k) -. m.(k)) /. scale > tol then ok := false
  done;
  !ok

(* Routh-Hurwitz stability test on the denominator — decides left-half-
   plane pole placement from the coefficients alone, so unstable candidate
   orders can be rejected without any root finding. Degenerate rows are
   reported as unstable (the caller just tries a lower order). *)
let routh_stable qpoly =
  let d = La.Poly.degree qpoly in
  if d < 1 then true
  else begin
    (* Normalize sign so the leading coefficient is positive. *)
    let s = if qpoly.(d) > 0.0 then 1.0 else -1.0 in
    (* All coefficients must be strictly positive (necessary condition). *)
    let all_pos = ref true in
    for k = 0 to d do
      if s *. qpoly.(k) <= 0.0 then all_pos := false
    done;
    if not !all_pos then false
    else begin
      (* Rows are indexed by descending powers: row0 = d, d-2, ...;
         row1 = d-1, d-3, ... *)
      let width = (d / 2) + 1 in
      let row0 = Array.make width 0.0 and row1 = Array.make width 0.0 in
      for j = 0 to width - 1 do
        let k0 = d - (2 * j) in
        if k0 >= 0 then row0.(j) <- s *. qpoly.(k0);
        let k1 = d - 1 - (2 * j) in
        if k1 >= 0 then row1.(j) <- s *. qpoly.(k1)
      done;
      let rec step prev cur rows_left ok =
        if (not ok) || rows_left = 0 then ok
        else begin
          let pivot = cur.(0) in
          if pivot <= 0.0 || not (Float.is_finite pivot) then false
          else begin
            let next = Array.make width 0.0 in
            for j = 0 to width - 2 do
              next.(j) <- ((cur.(0) *. prev.(j + 1)) -. (prev.(0) *. cur.(j + 1))) /. cur.(0)
            done;
            step cur next (rows_left - 1) ok
          end
        end
      in
      step row0 row1 (d - 1) true
    end
  end

let rom_of_coeffs c ~q =
  match La.Roots.find c.qpoly with
  | exception Failure msg -> Error ("pade: " ^ msg)
  | poles_scaled ->
      if Array.length poles_scaled <> q then Error "pade: wrong root count"
      else if not (Array.for_all La.Cpx.is_finite poles_scaled) then
        Error "pade: non-finite poles"
      else begin
        (* k_i = P(p_i) / Q'(p_i) in the scaled domain (zero where Q'
           vanishes), then poles and residues scaled by w0: Cpx.div and
           Cpx.scale on the float parts. *)
        let dq = La.Poly.derivative c.qpoly in
        let pr = Array.map (fun (p : La.Cpx.t) -> p.re) poles_scaled in
        let pi = Array.map (fun (p : La.Cpx.t) -> p.im) poles_scaled in
        let num = [| 0.0; 0.0 |] and den = [| 0.0; 0.0 |] in
        let kr = Array.make q 0.0 and ki = Array.make q 0.0 in
        for i = 0 to q - 1 do
          La.Poly.eval_cpx_at c.ppoly ~re:pr ~im:pi i ~out:num;
          La.Poly.eval_cpx_at dq ~re:pr ~im:pi i ~out:den;
          let xr = num.(0) and xi = num.(1) and yr = den.(0) and yi = den.(1) in
          if not (Float.hypot yr yi < 1e-30) then begin
            if Float.abs yr >= Float.abs yi then begin
              let r = yi /. yr in
              let d = yr +. (r *. yi) in
              kr.(i) <- (xr +. (r *. xi)) /. d;
              ki.(i) <- (xi -. (r *. xr)) /. d
            end
            else begin
              let r = yr /. yi in
              let d = yi +. (r *. yr) in
              kr.(i) <- ((r *. xr) +. xi) /. d;
              ki.(i) <- ((r *. xi) -. xr) /. d
            end
          end
        done;
        let w0 = c.w0 in
        let poles = Array.init q (fun i -> { La.Cpx.re = w0 *. pr.(i); im = w0 *. pi.(i) }) in
        let residues = Array.init q (fun i -> { La.Cpx.re = w0 *. kr.(i); im = w0 *. ki.(i) }) in
        if Array.for_all La.Cpx.is_finite residues then Ok { poles; residues; q; scale = w0 }
        else Error "pade: non-finite residues"
      end

let fit ~q moments =
  match fit_coeffs ~q (scale_moments moments) with
  | Error e -> Error e
  | Ok c -> rom_of_coeffs c ~q

(* m_k = - sum_i k_i / p_i^(k+1), for every k < n at once: pole i's
   power p_i^(k+1) is carried from k to k + 1, the same chain of Cpx.mul
   from Cpx.one that a lone m_k multiplies out, and each m_k subtracts the
   poles' terms in pole order. Only real parts are kept: an imaginary part
   never feeds a real one in Cpx.sub. *)
let moments rom n =
  let acc = Array.make n 0.0 in
  for i = 0 to Array.length rom.poles - 1 do
    let pr = rom.poles.(i).La.Cpx.re and pim = rom.poles.(i).La.Cpx.im in
    let xr = rom.residues.(i).La.Cpx.re and xi = rom.residues.(i).La.Cpx.im in
    let yr = ref 1.0 and yi = ref 0.0 in
    for k = 0 to n - 1 do
      let nr = (!yr *. pr) -. (!yi *. pim) and ni = (!yr *. pim) +. (!yi *. pr) in
      yr := nr;
      yi := ni;
      (* the real part of Cpx.div k_i y *)
      let t =
        if Float.abs nr >= Float.abs ni then begin
          let r = ni /. nr in
          (xr +. (r *. xi)) /. (nr +. (r *. ni))
        end
        else begin
          let r = nr /. ni in
          ((r *. xr) +. xi) /. (ni +. (r *. nr))
        end
      in
      acc.(k) <- acc.(k) -. t
    done
  done;
  acc

(* H(jw) = sum_i k_i / (jw - p_i): Cpx.sub, Cpx.div and Cpx.add per pole,
   from Cpx.zero, on the float parts. *)
let eval_into rom ~w (out : float array) =
  let ar = ref 0.0 and ai = ref 0.0 in
  for i = 0 to Array.length rom.poles - 1 do
    let yr = 0.0 -. rom.poles.(i).La.Cpx.re and yi = w -. rom.poles.(i).La.Cpx.im in
    let xr = rom.residues.(i).La.Cpx.re and xi = rom.residues.(i).La.Cpx.im in
    if Float.abs yr >= Float.abs yi then begin
      let r = yi /. yr in
      let d = yr +. (r *. yi) in
      ar := !ar +. ((xr +. (r *. xi)) /. d);
      ai := !ai +. ((xi -. (r *. xr)) /. d)
    end
    else begin
      let r = yr /. yi in
      let d = yi +. (r *. yr) in
      ar := !ar +. (((r *. xr) +. xi) /. d);
      ai := !ai +. (((r *. xi) -. xr) /. d)
    end
  done;
  out.(0) <- !ar;
  out.(1) <- !ai

let eval rom ~w =
  let out = [| 0.0; 0.0 |] in
  eval_into rom ~w out;
  { La.Cpx.re = out.(0); im = out.(1) }

let stable rom = Array.for_all (fun p -> p.La.Cpx.re < 0.0) rom.poles
