type rom = { poles : La.Cpx.t array; residues : La.Cpx.t array; q : int; scale : float }

(* Fit in a rescaled frequency domain: with s = w0 * s', the scaled moments
   are m'_k = m_k * w0^k and are O(1) near the dominant pole. *)
let pick_scale moments =
  if Array.length moments >= 2 && moments.(1) <> 0.0 && moments.(0) <> 0.0 then
    Float.abs (moments.(0) /. moments.(1))
  else 1.0

type coeffs = { qpoly : La.Poly.t; ppoly : La.Poly.t; w0 : float }

let fit_coeffs ~q moments =
  if Array.length moments < 2 * q then Error "pade: not enough moments"
  else if q < 1 then Error "pade: order must be >= 1"
  else begin
    let w0 = pick_scale moments in
    let m = Array.mapi (fun k v -> v *. (w0 ** float_of_int k)) moments in
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
          Ok { qpoly; ppoly; w0 }
        end
  end

(* Power-series division: c_k of P/Q, compared against the scaled input
   moments — validates the fit without any root finding. *)
let series_matches c moments ~q ~tol =
  let n = 2 * q in
  let m = Array.init n (fun k -> moments.(k) *. (c.w0 ** float_of_int k)) in
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
        let dq = La.Poly.derivative c.qpoly in
        let residues_scaled =
          Array.map
            (fun p ->
              let num = La.Poly.eval_cpx c.ppoly p in
              let den = La.Poly.eval_cpx dq p in
              if La.Cpx.abs den < 1e-30 then La.Cpx.zero else La.Cpx.div num den)
            poles_scaled
        in
        let poles = Array.map (fun p -> La.Cpx.scale c.w0 p) poles_scaled in
        let residues = Array.map (fun k -> La.Cpx.scale c.w0 k) residues_scaled in
        if Array.for_all La.Cpx.is_finite residues then Ok { poles; residues; q; scale = c.w0 }
        else Error "pade: non-finite residues"
      end

let fit ~q moments =
  match fit_coeffs ~q moments with
  | Error e -> Error e
  | Ok c -> rom_of_coeffs c ~q

let moment rom k =
  (* m_k = - sum_i k_i / p_i^(k+1) *)
  let acc = ref La.Cpx.zero in
  Array.iteri
    (fun i p ->
      let pk = ref La.Cpx.one in
      for _ = 0 to k do
        pk := La.Cpx.mul !pk p
      done;
      acc := La.Cpx.sub !acc (La.Cpx.div rom.residues.(i) !pk))
    rom.poles;
  !acc.La.Cpx.re

let eval rom ~w =
  let jw = La.Cpx.make 0.0 w in
  let acc = ref La.Cpx.zero in
  Array.iteri
    (fun i p -> acc := La.Cpx.add !acc (La.Cpx.div rom.residues.(i) (La.Cpx.sub jw p)))
    rom.poles;
  !acc

let stable rom = Array.for_all (fun p -> p.La.Cpx.re < 0.0) rom.poles
