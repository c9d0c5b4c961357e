(* Durand-Kerner with variable rescaling. For polynomial p(s) of degree d we
   substitute s = r*t with r the Cauchy-bound radius so the roots of the
   rescaled polynomial are O(1), which keeps the simultaneous iteration
   well-behaved for AWE's widely spread pole magnitudes. *)

let cauchy_radius c =
  let d = Poly.degree c in
  let lead = c.(d) in
  let m = ref 0.0 in
  for k = 0 to d - 1 do
    m := Float.max !m (Float.abs (c.(k) /. lead))
  done;
  1.0 +. !m

let rescale c r =
  let d = Poly.degree c in
  Array.init (d + 1) (fun k -> c.(k) *. (r ** float_of_int k))

let find ?(max_iter = 120) ?(tol = 1e-12) c =
  let c = Poly.trim c in
  let d = Poly.degree c in
  if d = 0 then [||]
  else begin
    let r = cauchy_radius c in
    let cs = Poly.normalize (rescale c r) in
    (* The iterates live in two float planes, and every step below writes
       out the stdlib Complex formula it stands for (mul, sub, both
       branches of div, norm as hypot), operation for operation, so the
       roots keep the bits of the boxed formulation.

       Initial guesses on a spiral that is not a root-of-unity pattern:
       z_k = seed^(k+1), multiplied out one Cpx.mul at a time. *)
    let seed_re = 0.4 and seed_im = 0.9 in
    let zr = Array.make d 1.0 and zi = Array.make d 0.0 in
    let cur_re = ref seed_re and cur_im = ref seed_im in
    for k = 0 to d - 1 do
      zr.(k) <- !cur_re;
      zi.(k) <- !cur_im;
      let nr = (!cur_re *. seed_re) -. (!cur_im *. seed_im)
      and ni = (!cur_re *. seed_im) +. (!cur_im *. seed_re) in
      cur_re := nr;
      cur_im := ni
    done;
    let p = [| 0.0; 0.0 |] in
    let converged = ref false in
    let iter = ref 0 in
    while (not !converged) && !iter < max_iter do
      incr iter;
      (* The convergence test is max_i |step_i| < tol. A faithfully
         rounded hypot is >= max(|re|, |im|), so a step with a part >= tol
         fails it without a hypot, and once one step has failed (a NaN
         norm fails too) no later norm can change the outcome. *)
      let failed = ref false in
      for i = 0 to d - 1 do
        Poly.eval_cpx_at cs ~re:zr ~im:zi i ~out:p;
        let xr = zr.(i) and xi = zi.(i) in
        (* denom = prod over j <> i of (z_i - z_j), from Cpx.one *)
        let dr = ref 1.0 and di = ref 0.0 in
        for j = 0 to d - 1 do
          if j <> i then begin
            let er = xr -. zr.(j) and ei = xi -. zi.(j) in
            let nr = (!dr *. er) -. (!di *. ei) and ni = (!dr *. ei) +. (!di *. er) in
            dr := nr;
            di := ni
          end
        done;
        (* step = p / denom, or a fixed nudge off coincident iterates
           (|denom| < 1e-30, impossible once a part is >= 1e-30) *)
        let sr = ref 1e-6 and si = ref 1e-6 in
        if
          Float.abs !dr >= 1e-30
          || Float.abs !di >= 1e-30
          || not (Float.hypot !dr !di < 1e-30)
        then begin
          let pr = p.(0) and pi = p.(1) in
          if Float.abs !dr >= Float.abs !di then begin
            let q = !di /. !dr in
            let e = !dr +. (q *. !di) in
            sr := (pr +. (q *. pi)) /. e;
            si := (pi -. (q *. pr)) /. e
          end
          else begin
            let q = !dr /. !di in
            let e = !di +. (q *. !dr) in
            sr := ((q *. pr) +. pi) /. e;
            si := ((q *. pi) -. pr) /. e
          end
        end;
        zr.(i) <- xr -. !sr;
        zi.(i) <- xi -. !si;
        if
          (not !failed)
          && (Float.abs !sr >= tol || Float.abs !si >= tol || not (Float.hypot !sr !si < tol))
        then failed := true
      done;
      if not !failed then converged := true
    done;
    for k = 0 to d - 1 do
      if not (Float.is_finite zr.(k) && Float.is_finite zi.(k)) then
        failwith "Roots.find: diverged"
    done;
    (* Newton polish on the original (unscaled) polynomial, from r * z. *)
    for k = 0 to d - 1 do
      zr.(k) <- r *. zr.(k);
      zi.(k) <- r *. zi.(k)
    done;
    let dc = Poly.derivative c in
    let dp = [| 0.0; 0.0 |] in
    for i = 0 to d - 1 do
      for _ = 1 to 3 do
        Poly.eval_cpx_at c ~re:zr ~im:zi i ~out:p;
        Poly.eval_cpx_at dc ~re:zr ~im:zi i ~out:dp;
        let dr = dp.(0) and di = dp.(1) in
        if Float.hypot dr di > 1e-30 then begin
          (* step = p / dp *)
          let pr = p.(0) and pi = p.(1) in
          let sr = ref 0.0 and si = ref 0.0 in
          if Float.abs dr >= Float.abs di then begin
            let q = di /. dr in
            let e = dr +. (q *. di) in
            sr := (pr +. (q *. pi)) /. e;
            si := (pi -. (q *. pr)) /. e
          end
          else begin
            let q = dr /. di in
            let e = di +. (q *. dr) in
            sr := ((q *. pr) +. pi) /. e;
            si := ((q *. pi) -. pr) /. e
          end;
          if
            Float.is_finite !sr && Float.is_finite !si
            && Float.hypot !sr !si < 0.5 *. (1.0 +. Float.hypot zr.(i) zi.(i))
          then begin
            zr.(i) <- zr.(i) -. !sr;
            zi.(i) <- zi.(i) -. !si
          end
        end
      done
    done;
    (* Enforce conjugate symmetry: snap near-real roots to the axis, average
       conjugate pairs. *)
    for k = 0 to d - 1 do
      if Float.abs zi.(k) <= 1e-9 *. (1.0 +. Float.abs zr.(k)) then zi.(k) <- 0.0
    done;
    let used = Array.make d false in
    for i = 0 to d - 1 do
      if (not used.(i)) && zi.(i) <> 0.0 then begin
        (* the nearest unused root to the conjugate target (tr, ti) *)
        let tr = zr.(i) and ti = -.zi.(i) in
        let best = ref (-1) and bestd = ref infinity in
        for j = 0 to d - 1 do
          if j <> i && not used.(j) then begin
            let dd = Float.hypot (zr.(j) -. tr) (zi.(j) -. ti) in
            if dd < !bestd then begin
              bestd := dd;
              best := j
            end
          end
        done;
        if !best >= 0 && !bestd < 1e-6 *. (1.0 +. Float.hypot tr ti) then begin
          let b = !best in
          let re = 0.5 *. (zr.(i) +. zr.(b)) in
          let im = 0.5 *. (Float.abs zi.(i) +. Float.abs zi.(b)) in
          let s = if zi.(i) >= 0.0 then 1.0 else -1.0 in
          zr.(i) <- re;
          zi.(i) <- s *. im;
          zr.(b) <- re;
          zi.(b) <- -.s *. im;
          used.(i) <- true;
          used.(b) <- true
        end
      end
    done;
    Array.init d (fun k -> { Cpx.re = zr.(k); im = zi.(k) })
  end

let residual c roots =
  let c = Poly.trim c in
  let scale = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0.0 c in
  if scale = 0.0 then 0.0
  else
    Array.fold_left
      (fun acc zr ->
        let m = Cpx.abs zr in
        (* Normalize by the polynomial magnitude at comparable argument size
           to avoid penalizing huge roots. *)
        let denom = Float.max scale (scale *. (m ** float_of_int (Poly.degree c))) in
        Float.max acc (Cpx.abs (Poly.eval_cpx c zr) /. denom))
      0.0 roots
