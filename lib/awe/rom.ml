type memo = Unscanned | Scanned of float option

(* [unity] memoizes the unity-gain scan, which the [ugf] and
   [phase_margin] specs of one evaluation both need. The memo lives in
   the ROM, and a ROM never leaves the session and domain that built it:
   an Eval.Incr session's per-jig lists, or the one evaluation or Verify
   call that fitted it. Were one ever read by two domains, each would
   scan the same immutable poles and store the same value. *)
type t = { rom : Pade.rom; moments : float array; mutable unity : memo }

(* A fit is numerically sound when the model actually reproduces the
   moments it was fitted to — at high orders the Hankel system can be so
   ill-conditioned that the "fit" fails its own inputs. *)
let reconstructs rom moments q =
  let got = Pade.moments rom (2 * q) in
  let rec check k =
    if k >= 2 * q then true
    else begin
      let want = moments.(k) in
      let scale = Float.abs want +. (1e-12 *. Float.abs moments.(0)) +. 1e-300 in
      if Float.abs (got.(k) -. want) /. scale > 1e-6 then false else check (k + 1)
    end
  in
  check 0

(* |k_i| is Cpx.abs, i.e. Float.hypot of the parts. *)
let stable_enough rom =
  let total = ref 0.0 and unstable = ref 0.0 in
  Array.iter (fun (r : La.Cpx.t) -> total := !total +. Float.hypot r.re r.im) rom.Pade.residues;
  for i = 0 to Array.length rom.Pade.poles - 1 do
    if rom.Pade.poles.(i).La.Cpx.re >= 0.0 then begin
      let r = rom.Pade.residues.(i) in
      unstable := !unstable +. Float.hypot r.re r.im
    end
  done;
  !unstable <= 1e-6 *. !total

(* Drop poles whose residues are numerically irrelevant — overfitting
   artifacts that would otherwise pollute the pole list. *)
let prune rom =
  let total = Array.fold_left (fun acc r -> acc +. La.Cpx.abs r) 0.0 rom.Pade.residues in
  let keep = ref [] in
  Array.iteri
    (fun i p ->
      if La.Cpx.abs rom.Pade.residues.(i) > 1e-9 *. total then
        keep := (p, rom.Pade.residues.(i)) :: !keep)
    rom.Pade.poles;
  let kept = List.rev !keep in
  {
    rom with
    Pade.poles = Array.of_list (List.map fst kept);
    residues = Array.of_list (List.map snd kept);
    q = List.length kept;
  }

let of_moments ?(qmax = 6) moments =
  if Array.length moments < (2 * qmax) + 2 then
    invalid_arg "Rom.of_moments: need 2*qmax+2 moments";
  if Array.for_all (fun m -> Float.abs m < 1e-300) moments then
    Error "rom: all moments are zero (no coupling from source to output)"
  else if not (Array.for_all Float.is_finite moments) then Error "rom: non-finite moments"
  else begin
    (* Highest usable order wins: AWE accuracy away from dc improves with
       order, and pruning removes the negligible-residue artifacts that
       over-fitting introduces. The cheap series-division check filters
       ill-conditioned orders before any root finding happens. *)
    let scaled = Pade.scale_moments moments in
    let rec descend q =
      if q < 1 then Error "rom: no stable Pade model up to qmax"
      else begin
        match Pade.fit_coeffs ~q scaled with
        | Ok c
          when Pade.series_matches c scaled ~q ~tol:1e-6 && Pade.routh_stable c.Pade.qpoly
          -> begin
            match Pade.rom_of_coeffs c ~q with
            | Ok rom when stable_enough rom && reconstructs rom moments q ->
                Ok { rom = prune rom; moments; unity = Unscanned }
            | Ok _ | Error _ -> descend (q - 1)
          end
        | Ok _ | Error _ -> descend (q - 1)
      end
    in
    descend qmax
  end

let build_with ?(qmax = 6) f ~b ~sel =
  let count = (2 * qmax) + 2 in
  let moments = Moments.compute_with f ~b ~sel ~count in
  of_moments ~qmax moments

let build ?qmax lin ~b ~sel = build_with ?qmax (Moments.factor lin) ~b ~sel

let dc_gain t = t.moments.(0)
let eval t ~f = Pade.eval t.rom ~w:(2.0 *. Float.pi *. f)

(* |H(j 2 pi f)| through the caller's two-float scratch [h]. *)
let magnitude_with h t f =
  Pade.eval_into t.rom ~w:(2.0 *. Float.pi *. f) h;
  Float.hypot h.(0) h.(1)

let magnitude_at t ~f = magnitude_with [| 0.0; 0.0 |] t f
let poles t = t.rom.Pade.poles

(* Log-grid scan and bisection, identical in spirit to Mna.Ac but against
   the reduced model, which is why it costs microseconds, not milliseconds.
   The grid is the same on every call, so it is built once. *)
let crossing_grid =
  let fmin = 1e-2 and fmax = 1e12 in
  let points = 281 in
  Array.init points (fun k ->
      fmin *. ((fmax /. fmin) ** (float_of_int k /. float_of_int (points - 1))))

(* The first falling crossing of [level] between neighbouring grid
   points, bisected 60 times in log frequency. *)
let crossing t ~level =
  let h = [| 0.0; 0.0 |] in
  let n = Array.length crossing_grid in
  let k = ref 1 and prev = ref (magnitude_with h t crossing_grid.(0)) and found = ref false in
  while (not !found) && !k < n do
    let m = magnitude_with h t crossing_grid.(!k) in
    if (!prev -. level) *. (m -. level) <= 0.0 && !prev > m then found := true
    else begin
      prev := m;
      incr k
    end
  done;
  if not !found then None
  else begin
    let lo = ref crossing_grid.(!k - 1) and hi = ref crossing_grid.(!k) in
    for _ = 1 to 60 do
      let mid = Float.sqrt (!lo *. !hi) in
      if magnitude_with h t mid >= level then lo := mid else hi := mid
    done;
    Some (Float.sqrt (!lo *. !hi))
  end

let unity_gain_freq t =
  match t.unity with
  | Scanned fu -> fu
  | Unscanned ->
      let fu = crossing t ~level:1.0 in
      t.unity <- Scanned fu;
      fu

let bandwidth_3db t =
  let a0 = Float.abs (dc_gain t) in
  if a0 = 0.0 then None else crossing t ~level:(a0 /. Float.sqrt 2.0)

(* The phase of h(f) = sgn H(j 2 pi f) (Cpx.scale), advanced step by step
   by arg (h(f_k) / h(f_(k-1))): Cpx.div, and Cpx.arg as atan2. *)
let unwrapped_phase_to t ~fu =
  let sgn = if dc_gain t >= 0.0 then 1.0 else -1.0 in
  let h = [| 0.0; 0.0 |] in
  let steps = 160 in
  let f0 = Float.min 1.0 (fu /. 1e6) in
  Pade.eval_into t.rom ~w:(2.0 *. Float.pi *. f0) h;
  let yr = ref (sgn *. h.(0)) and yi = ref (sgn *. h.(1)) in
  let phase = ref (Float.atan2 !yi !yr) in
  for k = 1 to steps do
    let f = f0 *. ((fu /. f0) ** (float_of_int k /. float_of_int steps)) in
    Pade.eval_into t.rom ~w:(2.0 *. Float.pi *. f) h;
    let xr = sgn *. h.(0) and xi = sgn *. h.(1) in
    if Float.abs !yr >= Float.abs !yi then begin
      let r = !yi /. !yr in
      let d = !yr +. (r *. !yi) in
      phase := !phase +. Float.atan2 ((xi -. (r *. xr)) /. d) ((xr +. (r *. xi)) /. d)
    end
    else begin
      let r = !yr /. !yi in
      let d = !yi +. (r *. !yr) in
      phase := !phase +. Float.atan2 (((r *. xi) -. xr) /. d) (((r *. xr) +. xi) /. d)
    end;
    yr := xr;
    yi := xi
  done;
  !phase *. 180.0 /. Float.pi

let phase_margin t =
  match unity_gain_freq t with
  | None -> None
  | Some fu -> Some (180.0 +. unwrapped_phase_to t ~fu)

let gain_margin_db t =
  (* Find the frequency where the unwrapped phase reaches -180 degrees. *)
  let fmin = 1.0 and fmax = 1e12 in
  let points = 301 in
  let phase_at f = unwrapped_phase_to t ~fu:f in
  let rec scan k prev =
    if k >= points then None
    else begin
      let f = fmin *. ((fmax /. fmin) ** (float_of_int k /. float_of_int (points - 1))) in
      let p = phase_at f in
      match prev with
      | Some (fp, pp) when (pp +. 180.0) *. (p +. 180.0) <= 0.0 ->
          let fc = Float.sqrt (fp *. f) in
          let m = magnitude_at t ~f:fc in
          if m > 0.0 then Some (-20.0 *. Float.log10 m) else None
      | Some _ | None -> scan (k + 1) (Some (f, p))
    end
  in
  scan 0 None

let dominant_pole_hz t =
  let ps = t.rom.Pade.poles in
  if Array.length ps = 0 then None
  else begin
    let best = Array.fold_left (fun acc p -> Float.min acc (La.Cpx.abs p)) infinity ps in
    Some (best /. (2.0 *. Float.pi))
  end

let zeros t =
  let q = t.rom.Pade.q in
  if q <= 1 then [||]
  else begin
    (* N(s) = sum_i k_i * prod_(j<>i) (s - p_j), expanded in complex
       arithmetic; conjugate symmetry makes the coefficients real. *)
    let num = Array.make q La.Cpx.zero in
    Array.iteri
      (fun i ki ->
        let prod = ref [| La.Cpx.one |] in
        Array.iteri
          (fun j pj ->
            if j <> i then begin
              let c = !prod in
              let out = Array.make (Array.length c + 1) La.Cpx.zero in
              Array.iteri
                (fun k ck ->
                  out.(k) <- La.Cpx.sub out.(k) (La.Cpx.mul pj ck);
                  out.(k + 1) <- La.Cpx.add out.(k + 1) ck)
                c;
              prod := out
            end)
          t.rom.Pade.poles;
        Array.iteri (fun k ck -> num.(k) <- La.Cpx.add num.(k) (La.Cpx.mul ki ck)) !prod)
      t.rom.Pade.residues;
    let real_coeffs = Array.map (fun z -> z.La.Cpx.re) num in
    if La.Poly.degree real_coeffs = 0 then [||]
    else try La.Roots.find real_coeffs with Failure _ -> [||]
  end

let step_response t ~time =
  (* y(t) = sum_i k_i/p_i * (exp(p_i t) - 1) for a unit step input. *)
  let acc = ref La.Cpx.zero in
  Array.iteri
    (fun i p ->
      let e = La.Cpx.exp (La.Cpx.scale time p) in
      let term = La.Cpx.mul (La.Cpx.div t.rom.Pade.residues.(i) p) (La.Cpx.sub e La.Cpx.one) in
      acc := La.Cpx.add !acc term)
    t.rom.Pade.poles;
  !acc.La.Cpx.re

let settling_time t ~tol =
  let final = dc_gain t in
  if final = 0.0 then None
  else begin
    (* Time scale from the slowest pole; search out to 50 of its periods. *)
    let slowest =
      Array.fold_left (fun acc p -> Float.min acc (La.Cpx.abs p)) infinity t.rom.Pade.poles
    in
    if not (Float.is_finite slowest) || slowest <= 0.0 then None
    else begin
      let tau = 1.0 /. slowest in
      let t_max = 50.0 *. tau in
      let points = 600 in
      let time k = t_max *. ((float_of_int k /. float_of_int points) ** 2.0) in
      (* Find the last sample outside the band; settle just after it. *)
      let last_outside = ref (-1) in
      for k = 0 to points do
        let y = step_response t ~time:(time k) in
        if Float.abs (y -. final) > tol *. Float.abs final then last_outside := k
      done;
      if !last_outside >= points then None
      else Some (time (!last_outside + 1))
    end
  end
