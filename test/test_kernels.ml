(* Bitwise tests for the dense numeric kernels. Each kernel indexes its
   storage directly; the rule for editing one is "same operations, same
   order", so a residual check is not enough — a reordered sum passes it.
   Every property here runs a reference implementation, written element by
   element through La.Mat.get/set or boxed Complex.t values, and compares
   the kernel's output with it bit for bit (Int64.bits_of_float), including
   the pivots, the sign and the column where Singular is raised. *)

let bits x = Int64.bits_of_float x
let same_bits x y = Int64.equal (bits x) (bits y)

let vec_same a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri (fun i x -> if not (same_bits x b.(i)) then ok := false) a;
  !ok

let mat_same a b =
  La.Mat.rows a = La.Mat.rows b
  && La.Mat.cols a = La.Mat.cols b
  && vec_same (Array.concat (Array.to_list (La.Mat.to_arrays a)))
       (Array.concat (Array.to_list (La.Mat.to_arrays b)))

(* --- Inputs ---

   Entries mix exact zeros of both signs, small integers (so pivot
   candidates tie in magnitude), and magnitudes spread over the 1e-12 ..
   1e3 range of MNA conductances. The MNA-shaped generator stamps
   conductance pairs and transconductances onto a mostly-zero matrix. *)

let entry rng =
  match Random.State.int rng 8 with
  | 0 -> 0.0
  | 1 -> -0.0
  | 2 | 3 -> float_of_int (Random.State.int rng 5 - 2)
  | _ ->
      let m = 10.0 ** QCheck.Gen.float_range (-12.0) 3.0 rng in
      if Random.State.bool rng then m else -.m

let dense_matrix rng n = La.Mat.init n n (fun _ _ -> entry rng)

let mna_matrix rng n =
  let g = La.Mat.create n n in
  let stamp i j c =
    La.Mat.add_to g i i c;
    if j >= 0 then begin
      La.Mat.add_to g j j c;
      La.Mat.add_to g i j (-.c);
      La.Mat.add_to g j i (-.c)
    end
  in
  for i = 0 to n - 2 do
    if Random.State.int rng 4 > 0 then stamp i (i + 1) (Float.abs (entry rng))
  done;
  stamp 0 (-1) (Float.abs (entry rng));
  for _ = 1 to Random.State.int rng (2 * n) do
    let i = Random.State.int rng n and j = Random.State.int rng n in
    (* a transconductance: one off-diagonal entry, either sign *)
    if Random.State.bool rng then La.Mat.add_to g i j (entry rng)
    else if i <> j then stamp i j (Float.abs (entry rng))
  done;
  g

let matrix rng n =
  if n > 0 && Random.State.bool rng then mna_matrix rng n else dense_matrix rng n
let rhs rng n = Array.init n (fun _ -> entry rng)

(* --- Reference LU: element by element, through Mat.get/set --- *)

exception Ref_singular of int

type ref_lu = { rlu : La.Mat.t; rpiv : int array; rsign : float }

let ref_factor a =
  let n = La.Mat.rows a in
  let lu = La.Mat.copy a in
  let piv = Array.init n (fun k -> k) in
  let sign = ref 1.0 in
  for k = 0 to n - 1 do
    let p = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs (La.Mat.get lu i k) > Float.abs (La.Mat.get lu !p k) then p := i
    done;
    if !p <> k then begin
      for j = 0 to n - 1 do
        let tmp = La.Mat.get lu k j in
        La.Mat.set lu k j (La.Mat.get lu !p j);
        La.Mat.set lu !p j tmp
      done;
      let tp = piv.(k) in
      piv.(k) <- piv.(!p);
      piv.(!p) <- tp;
      sign := -. !sign
    end;
    let pivot = La.Mat.get lu k k in
    if Float.abs pivot < 1e-300 || not (Float.is_finite pivot) then raise (Ref_singular k);
    for i = k + 1 to n - 1 do
      let f = La.Mat.get lu i k /. pivot in
      La.Mat.set lu i k f;
      if f <> 0.0 then
        for j = k + 1 to n - 1 do
          La.Mat.add_to lu i j (-.f *. La.Mat.get lu k j)
        done
    done
  done;
  { rlu = lu; rpiv = piv; rsign = !sign }

let ref_solve_in_place t b =
  let n = La.Mat.rows t.rlu in
  let y = Array.init n (fun i -> b.(t.rpiv.(i))) in
  for i = 0 to n - 1 do
    for j = 0 to i - 1 do
      y.(i) <- y.(i) -. (La.Mat.get t.rlu i j *. y.(j))
    done
  done;
  for i = n - 1 downto 0 do
    for j = i + 1 to n - 1 do
      y.(i) <- y.(i) -. (La.Mat.get t.rlu i j *. y.(j))
    done;
    y.(i) <- y.(i) /. La.Mat.get t.rlu i i
  done;
  Array.blit y 0 b 0 n

let ref_solve_transposed_in_place t b =
  let n = La.Mat.rows t.rlu in
  let z = Array.copy b in
  for i = 0 to n - 1 do
    for j = 0 to i - 1 do
      z.(i) <- z.(i) -. (La.Mat.get t.rlu j i *. z.(j))
    done;
    z.(i) <- z.(i) /. La.Mat.get t.rlu i i
  done;
  for i = n - 1 downto 0 do
    for j = i + 1 to n - 1 do
      z.(i) <- z.(i) -. (La.Mat.get t.rlu j i *. z.(j))
    done
  done;
  for i = 0 to n - 1 do
    b.(t.rpiv.(i)) <- z.(i)
  done

(* Outcome of a factorization, comparable across the two implementations. *)
let factor_outcome a =
  match La.Lu.factor a with
  | lu -> Ok lu
  | exception La.Lu.Singular k -> Error k

let ref_outcome a = match ref_factor a with r -> Ok r | exception Ref_singular k -> Error k

let factors_same (lu : La.Lu.t) r =
  mat_same lu.La.Lu.lu r.rlu && lu.La.Lu.piv = r.rpiv && same_bits lu.La.Lu.sign r.rsign

let prop_lu_factor =
  QCheck.Test.make ~name:"kernels: Lu.factor bits, pivots, sign, Singular column" ~count:400
    QCheck.(pair (int_range 0 14) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; n |] in
      let a = matrix rng n in
      let a0 = La.Mat.copy a in
      let in_place =
        match La.Lu.factor_in_place (La.Mat.copy a) with
        | lu -> Ok lu
        | exception La.Lu.Singular k -> Error k
      in
      match (factor_outcome a, in_place, ref_outcome a) with
      | Ok lu, Ok lu', Ok r ->
          mat_same a a0 && factors_same lu r && factors_same lu' r
      | Error k, Error k', Error kr -> k = kr && k' = kr
      | _ -> false)

let prop_lu_solves =
  QCheck.Test.make ~name:"kernels: Lu solves match the reference bit for bit" ~count:400
    QCheck.(pair (int_range 1 14) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; n; 7 |] in
      let a = matrix rng n in
      match (factor_outcome a, ref_outcome a) with
      | Ok lu, Ok r ->
          let b = rhs rng n in
          let x = La.Lu.solve lu b and xr = Array.copy b in
          ref_solve_in_place r xr;
          let y = La.Lu.solve_transposed lu b and yr = Array.copy b in
          ref_solve_transposed_in_place r yr;
          vec_same x xr && vec_same y yr
      | Error k, Error kr -> k = kr
      | _ -> false)

(* --- Sparse.of_dense against compress of the triplet list --- *)

let prop_sparse_of_dense =
  QCheck.Test.make ~name:"kernels: Sparse.of_dense equals compress of its triplets" ~count:300
    QCheck.(triple (int_range 0 12) (int_range 0 12) (int_range 0 1_000_000))
    (fun (m, n, seed) ->
      let rng = Random.State.make [| seed; m; n |] in
      let dm = La.Mat.init m n (fun _ _ -> if Random.State.bool rng then 0.0 else entry rng) in
      let tr = La.Sparse.triplets () in
      for i = 0 to m - 1 do
        for j = 0 to n - 1 do
          let v = La.Mat.get dm i j in
          if v <> 0.0 then La.Sparse.add tr i j v
        done
      done;
      let s = La.Sparse.of_dense dm and c = La.Sparse.compress ~rows:m ~cols:n tr in
      let x = rhs rng n in
      La.Sparse.nnz s = La.Sparse.nnz c
      && La.Sparse.rows s = m
      && La.Sparse.cols s = n
      && mat_same (La.Sparse.to_dense s) (La.Sparse.to_dense c)
      && vec_same (La.Sparse.mul_vec s x) (La.Sparse.mul_vec c x))

(* --- Zmat.solve against the boxed Complex.t formulation --- *)

exception Ref_zsingular of int

(* [a] is n x n row-major boxed complex, destroyed. *)
let ref_zsolve n (a : Complex.t array) (b : Complex.t array) =
  let get i j = a.((i * n) + j) and set i j v = a.((i * n) + j) <- v in
  let x = Array.copy b in
  for k = 0 to n - 1 do
    let p = ref k in
    for i = k + 1 to n - 1 do
      if Complex.norm (get i k) > Complex.norm (get !p k) then p := i
    done;
    if !p <> k then begin
      for j = 0 to n - 1 do
        let tmp = get k j in
        set k j (get !p j);
        set !p j tmp
      done;
      let tmp = x.(k) in
      x.(k) <- x.(!p);
      x.(!p) <- tmp
    end;
    let pivot = get k k in
    if
      Complex.norm pivot < 1e-300
      || not (Float.is_finite pivot.Complex.re && Float.is_finite pivot.Complex.im)
    then raise (Ref_zsingular k);
    for i = k + 1 to n - 1 do
      let f = Complex.div (get i k) pivot in
      if Complex.norm f <> 0.0 then begin
        for j = k + 1 to n - 1 do
          set i j (Complex.sub (get i j) (Complex.mul f (get k j)))
        done;
        x.(i) <- Complex.sub x.(i) (Complex.mul f x.(k))
      end
    done
  done;
  for i = n - 1 downto 0 do
    for j = i + 1 to n - 1 do
      x.(i) <- Complex.sub x.(i) (Complex.mul (get i j) x.(j))
    done;
    x.(i) <- Complex.div x.(i) (get i i)
  done;
  x

let cvec_same (a : Complex.t array) (b : Complex.t array) =
  Array.length a = Array.length b
  && Array.for_all2
       (fun (x : Complex.t) (y : Complex.t) -> same_bits x.re y.re && same_bits x.im y.im)
       a b

let zsolve_agrees n zm boxed b =
  let x = match La.Zmat.solve zm b with x -> Ok x | exception La.Zmat.Singular k -> Error k in
  let xr = match ref_zsolve n boxed b with x -> Ok x | exception Ref_zsingular k -> Error k in
  match (x, xr) with
  | Ok x, Ok xr -> cvec_same x xr
  | Error k, Error kr -> k = kr
  | _ -> false

let prop_zmat_solve =
  QCheck.Test.make ~name:"kernels: Zmat.solve matches boxed Complex bit for bit" ~count:400
    QCheck.(pair (int_range 0 12) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; n; 11 |] in
      let b = Array.init n (fun _ -> { Complex.re = entry rng; im = entry rng }) in
      if Random.State.bool rng then begin
        (* the direct-AC shape: G + jwC from real MNA-like matrices *)
        let g = matrix rng n and c = matrix rng n in
        let w = 10.0 ** QCheck.Gen.float_range 0.0 9.0 rng in
        let boxed =
          Array.init (n * n) (fun k ->
              { Complex.re = La.Mat.get g (k / n) (k mod n);
                im = w *. La.Mat.get c (k / n) (k mod n) })
        in
        zsolve_agrees n (La.Zmat.of_real_pair g c w) boxed b
      end
      else begin
        (* general entries, set one by one; small integers make |.| tie *)
        let boxed = Array.init (n * n) (fun _ -> { Complex.re = entry rng; im = entry rng }) in
        let zm = La.Zmat.create n n in
        Array.iteri (fun k z -> La.Zmat.set zm (k / n) (k mod n) z) boxed;
        zsolve_agrees n zm (Array.copy boxed) b
      end)

(* --- Reduced-model kernels against the boxed Complex.t formulation ---

   The references below are the Poly, Roots, Pade and Rom code as it was
   written on boxed Complex.t values; the kernels now spell the same
   formulas out on float parts. *)

let cscale k (z : Complex.t) = { Complex.re = k *. z.re; im = k *. z.im }
let cfinite (z : Complex.t) = Float.is_finite z.re && Float.is_finite z.im

let cpx_same (a : Complex.t) (b : Complex.t) = same_bits a.re b.re && same_bits a.im b.im

let cpxs_same a b = Array.length a = Array.length b && Array.for_all2 cpx_same a b

let ref_eval_cpx c z =
  let acc = ref Complex.zero in
  for k = Array.length c - 1 downto 0 do
    acc := Complex.add (Complex.mul !acc z) { Complex.re = c.(k); im = 0.0 }
  done;
  !acc

let ref_roots ?(max_iter = 120) ?(tol = 1e-12) c =
  let c = La.Poly.trim c in
  let d = La.Poly.degree c in
  if d = 0 then [||]
  else begin
    let r =
      let lead = c.(d) in
      let m = ref 0.0 in
      for k = 0 to d - 1 do
        m := Float.max !m (Float.abs (c.(k) /. lead))
      done;
      1.0 +. !m
    in
    let cs = La.Poly.normalize (Array.init (d + 1) (fun k -> c.(k) *. (r ** float_of_int k))) in
    let seed = { Complex.re = 0.4; im = 0.9 } in
    let z = Array.make d Complex.one in
    let cur = ref seed in
    for k = 0 to d - 1 do
      z.(k) <- !cur;
      cur := Complex.mul !cur seed
    done;
    let converged = ref false and iter = ref 0 in
    while (not !converged) && !iter < max_iter do
      incr iter;
      let worst = ref 0.0 in
      for i = 0 to d - 1 do
        let p = ref_eval_cpx cs z.(i) in
        let denom = ref Complex.one in
        for j = 0 to d - 1 do
          if j <> i then denom := Complex.mul !denom (Complex.sub z.(i) z.(j))
        done;
        let step =
          if Complex.norm !denom < 1e-30 then { Complex.re = 1e-6; im = 1e-6 }
          else Complex.div p !denom
        in
        z.(i) <- Complex.sub z.(i) step;
        worst := Float.max !worst (Complex.norm step)
      done;
      if !worst < tol then converged := true
    done;
    if not (Array.for_all cfinite z) then failwith "Roots.find: diverged";
    let out = Array.map (cscale r) z in
    let dc = La.Poly.derivative c in
    for i = 0 to d - 1 do
      for _ = 1 to 3 do
        let p = ref_eval_cpx c out.(i) and dp = ref_eval_cpx dc out.(i) in
        if Complex.norm dp > 1e-30 then begin
          let step = Complex.div p dp in
          if cfinite step && Complex.norm step < 0.5 *. (1.0 +. Complex.norm out.(i)) then
            out.(i) <- Complex.sub out.(i) step
        end
      done
    done;
    let snapped =
      Array.map
        (fun (zr : Complex.t) ->
          if Float.abs zr.im <= 1e-9 *. (1.0 +. Float.abs zr.re) then { zr with im = 0.0 } else zr)
        out
    in
    let used = Array.make d false in
    for i = 0 to d - 1 do
      if (not used.(i)) && snapped.(i).im <> 0.0 then begin
        let target = Complex.conj snapped.(i) in
        let best = ref (-1) and bestd = ref infinity in
        for j = 0 to d - 1 do
          if j <> i && not used.(j) then begin
            let dd = Complex.norm (Complex.sub snapped.(j) target) in
            if dd < !bestd then begin
              bestd := dd;
              best := j
            end
          end
        done;
        if !best >= 0 && !bestd < 1e-6 *. (1.0 +. Complex.norm target) then begin
          let a = snapped.(i) and b = snapped.(!best) in
          let re = 0.5 *. (a.re +. b.re) in
          let im = 0.5 *. (Float.abs a.im +. Float.abs b.im) in
          let s = if a.im >= 0.0 then 1.0 else -1.0 in
          snapped.(i) <- { Complex.re; im = s *. im };
          snapped.(!best) <- { Complex.re; im = -.s *. im };
          used.(i) <- true;
          used.(!best) <- true
        end
      end
    done;
    snapped
  end

let roots_outcome f c = match f c with r -> Ok r | exception Failure m -> Error m

(* Polynomials of degree 0..6: coefficients from [entry] (exact zeros of
   both signs, tied small integers, wide magnitudes), the expansion of
   roots with repeats, zeros and conjugate pairs, or a non-finite
   coefficient, which makes the iteration diverge. *)
let poly_input rng =
  let d = Random.State.int rng 7 in
  match Random.State.int rng 4 with
  | 0 | 1 -> Array.init (d + 1) (fun _ -> entry rng)
  | 2 ->
      let pick () =
        match Random.State.int rng 5 with
        | 0 -> Complex.zero
        | 1 -> { Complex.re = -0.0; im = 0.0 }
        | _ ->
            let m = 10.0 ** QCheck.Gen.float_range (-3.0) 9.0 rng in
            { Complex.re = (if Random.State.bool rng then -.m else m); im = 0.0 }
      in
      let rec build k acc =
        if k <= 0 then acc
        else if k >= 2 && Random.State.bool rng then begin
          let re = -.(10.0 ** QCheck.Gen.float_range (-2.0) 8.0 rng) in
          (* now and then a pair close enough to the axis to be snapped *)
          let im =
            if Random.State.int rng 3 = 0 then
              Float.abs re *. (10.0 ** QCheck.Gen.float_range (-13.0) (-7.0) rng)
            else 10.0 ** QCheck.Gen.float_range (-2.0) 8.0 rng
          in
          build (k - 2) ({ Complex.re; im } :: { Complex.re; im = -.im } :: acc)
        end
        else begin
          let z = pick () in
          (* a repeated root *)
          if k >= 2 && Random.State.int rng 3 = 0 then build (k - 2) (z :: z :: acc)
          else build (k - 1) (z :: acc)
        end
      in
      La.Poly.from_roots (Array.of_list (build (Int.max 1 d) []))
  | _ ->
      let c = Array.init (d + 2) (fun _ -> entry rng) in
      c.(Random.State.int rng (d + 2)) <-
        (match Random.State.int rng 3 with 0 -> Float.nan | 1 -> infinity | _ -> neg_infinity);
      c

let prop_poly_eval_cpx =
  QCheck.Test.make ~name:"kernels: Poly.eval_cpx matches boxed Complex bit for bit" ~count:400
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 23 |] in
      let c = poly_input rng in
      let z = { Complex.re = entry rng; im = entry rng } in
      let out = [| 0.0; 0.0 |] in
      La.Poly.eval_cpx_at c ~re:[| z.re |] ~im:[| z.im |] 0 ~out;
      let r = ref_eval_cpx c z in
      cpx_same (La.Poly.eval_cpx c z) r && cpx_same { Complex.re = out.(0); im = out.(1) } r)

let prop_roots_find =
  QCheck.Test.make ~name:"kernels: Roots.find matches boxed Complex bit for bit" ~count:500
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 29 |] in
      let c = poly_input rng in
      match (roots_outcome La.Roots.find c, roots_outcome ref_roots c) with
      | Ok a, Ok b -> cpxs_same a b
      | Error m, Error m' -> m = m'
      | _ -> false)

let test_roots_diverged () =
  let c = [| Float.nan; 1.0; 1.0 |] in
  let msg f = match roots_outcome f c with Error m -> m | Ok _ -> "roots returned" in
  Alcotest.(check string) "the reference diverges" "Roots.find: diverged" (msg ref_roots);
  Alcotest.(check string) "the kernel diverges alike" "Roots.find: diverged" (msg La.Roots.find)

(* Reference Pade: scaling per call, boxed residues, moments and H(jw). *)

let ref_pick_scale moments =
  if Array.length moments >= 2 && moments.(1) <> 0.0 && moments.(0) <> 0.0 then
    Float.abs (moments.(0) /. moments.(1))
  else 1.0

let ref_fit_coeffs ~q moments =
  if Array.length moments < 2 * q then Error "pade: not enough moments"
  else if q < 1 then Error "pade: order must be >= 1"
  else begin
    let w0 = ref_pick_scale moments in
    let m = Array.mapi (fun k v -> v *. (w0 ** float_of_int k)) moments in
    let a_mat = La.Mat.init q q (fun r c -> m.(q + r - (c + 1))) in
    let rhs = Array.init q (fun r -> -.m.(q + r)) in
    match ref_factor a_mat with
    | exception Ref_singular _ -> Error "pade: singular Hankel system"
    | lu ->
        let a = Array.copy rhs in
        ref_solve_in_place lu a;
        if not (Array.for_all Float.is_finite a) then Error "pade: non-finite fit"
        else begin
          let qpoly = Array.make (q + 1) 0.0 in
          qpoly.(0) <- 1.0;
          for j = 1 to q do
            qpoly.(j) <- a.(j - 1)
          done;
          let ppoly =
            Array.init q (fun t ->
                let acc = ref m.(t) in
                for j = 1 to Int.min t q do
                  acc := !acc +. (qpoly.(j) *. m.(t - j))
                done;
                !acc)
          in
          Ok { Awe.Pade.qpoly; ppoly; w0 }
        end
  end

let ref_series_matches (c : Awe.Pade.coeffs) moments ~q ~tol =
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

let ref_rom_of_coeffs (c : Awe.Pade.coeffs) ~q =
  match ref_roots c.qpoly with
  | exception Failure msg -> Error ("pade: " ^ msg)
  | poles_scaled ->
      if Array.length poles_scaled <> q then Error "pade: wrong root count"
      else if not (Array.for_all cfinite poles_scaled) then Error "pade: non-finite poles"
      else begin
        let dq = La.Poly.derivative c.qpoly in
        let residues_scaled =
          Array.map
            (fun p ->
              let num = ref_eval_cpx c.ppoly p in
              let den = ref_eval_cpx dq p in
              if Complex.norm den < 1e-30 then Complex.zero else Complex.div num den)
            poles_scaled
        in
        let poles = Array.map (cscale c.w0) poles_scaled in
        let residues = Array.map (cscale c.w0) residues_scaled in
        if Array.for_all cfinite residues then
          Ok { Awe.Pade.poles; residues; q; scale = c.w0 }
        else Error "pade: non-finite residues"
      end

let ref_moment (rom : Awe.Pade.rom) k =
  let acc = ref Complex.zero in
  Array.iteri
    (fun i p ->
      let pk = ref Complex.one in
      for _ = 0 to k do
        pk := Complex.mul !pk p
      done;
      acc := Complex.sub !acc (Complex.div rom.residues.(i) !pk))
    rom.poles;
  !acc.re

let ref_eval (rom : Awe.Pade.rom) ~w =
  let jw = { Complex.re = 0.0; im = w } in
  let acc = ref Complex.zero in
  Array.iteri
    (fun i p -> acc := Complex.add !acc (Complex.div rom.residues.(i) (Complex.sub jw p)))
    rom.poles;
  !acc

let roms_same (a : Awe.Pade.rom) (b : Awe.Pade.rom) =
  cpxs_same a.poles b.poles && cpxs_same a.residues b.residues && a.q = b.q
  && same_bits a.scale b.scale

(* Reference Rom: the order descent and the frequency scans. *)

let ref_reconstructs rom moments q =
  let rec check k =
    if k >= 2 * q then true
    else begin
      let want = moments.(k) and got = ref_moment rom k in
      let scale = Float.abs want +. (1e-12 *. Float.abs moments.(0)) +. 1e-300 in
      if Float.abs (got -. want) /. scale > 1e-6 then false else check (k + 1)
    end
  in
  check 0

let ref_stable_enough (rom : Awe.Pade.rom) =
  let total = Array.fold_left (fun acc r -> acc +. Complex.norm r) 0.0 rom.residues in
  let unstable = ref 0.0 in
  Array.iteri
    (fun i (p : Complex.t) ->
      if p.re >= 0.0 then unstable := !unstable +. Complex.norm rom.residues.(i))
    rom.poles;
  !unstable <= 1e-6 *. total

let ref_prune (rom : Awe.Pade.rom) =
  let total = Array.fold_left (fun acc r -> acc +. Complex.norm r) 0.0 rom.residues in
  let keep = ref [] in
  Array.iteri
    (fun i p ->
      if Complex.norm rom.residues.(i) > 1e-9 *. total then keep := (p, rom.residues.(i)) :: !keep)
    rom.poles;
  let kept = List.rev !keep in
  {
    rom with
    Awe.Pade.poles = Array.of_list (List.map fst kept);
    residues = Array.of_list (List.map snd kept);
    q = List.length kept;
  }

let ref_of_moments moments =
  let qmax = 6 in
  if Array.for_all (fun m -> Float.abs m < 1e-300) moments then
    Error "rom: all moments are zero (no coupling from source to output)"
  else if not (Array.for_all Float.is_finite moments) then Error "rom: non-finite moments"
  else begin
    let rec descend q =
      if q < 1 then Error "rom: no stable Pade model up to qmax"
      else begin
        match ref_fit_coeffs ~q moments with
        | Ok c
          when ref_series_matches c moments ~q ~tol:1e-6 && Awe.Pade.routh_stable c.qpoly -> begin
            match ref_rom_of_coeffs c ~q with
            | Ok rom when ref_stable_enough rom && ref_reconstructs rom moments q ->
                Ok (ref_prune rom)
            | Ok _ | Error _ -> descend (q - 1)
          end
        | Ok _ | Error _ -> descend (q - 1)
      end
    in
    descend qmax
  end

let ref_magnitude rom f = Complex.norm (ref_eval rom ~w:(2.0 *. Float.pi *. f))

let ref_crossing rom ~level =
  let fmin = 1e-2 and fmax = 1e12 in
  let points = 281 in
  let fk k = fmin *. ((fmax /. fmin) ** (float_of_int k /. float_of_int (points - 1))) in
  let rec scan k prev =
    if k >= points then None
    else begin
      let f = fk k in
      let m = ref_magnitude rom f in
      match prev with
      | Some (fp, mp) when (mp -. level) *. (m -. level) <= 0.0 && mp > m ->
          let rec bisect lo hi n =
            if n = 0 then Some (Float.sqrt (lo *. hi))
            else begin
              let mid = Float.sqrt (lo *. hi) in
              if ref_magnitude rom mid >= level then bisect mid hi (n - 1)
              else bisect lo mid (n - 1)
            end
          in
          bisect fp f 60
      | Some _ | None -> scan (k + 1) (Some (f, m))
    end
  in
  scan 0 None

let ref_unwrapped_phase_to rom ~dc ~fu =
  let sgn = if dc >= 0.0 then 1.0 else -1.0 in
  let h f = cscale sgn (ref_eval rom ~w:(2.0 *. Float.pi *. f)) in
  let steps = 160 in
  let f0 = Float.min 1.0 (fu /. 1e6) in
  let phase = ref (Complex.arg (h f0)) in
  let prev = ref (h f0) in
  for k = 1 to steps do
    let f = f0 *. ((fu /. f0) ** (float_of_int k /. float_of_int steps)) in
    let cur = h f in
    phase := !phase +. Complex.arg (Complex.div cur !prev);
    prev := cur
  done;
  !phase *. 180.0 /. Float.pi

let ref_phase_margin rom ~dc =
  match ref_crossing rom ~level:1.0 with
  | None -> None
  | Some fu -> Some (180.0 +. ref_unwrapped_phase_to rom ~dc ~fu)

let ref_gain_margin_db rom ~dc =
  let fmin = 1.0 and fmax = 1e12 in
  let points = 301 in
  let rec scan k prev =
    if k >= points then None
    else begin
      let f = fmin *. ((fmax /. fmin) ** (float_of_int k /. float_of_int (points - 1))) in
      let p = ref_unwrapped_phase_to rom ~dc ~fu:f in
      match prev with
      | Some (fp, pp) when (pp +. 180.0) *. (p +. 180.0) <= 0.0 ->
          let fc = Float.sqrt (fp *. f) in
          let m = ref_magnitude rom fc in
          if m > 0.0 then Some (-20.0 *. Float.log10 m) else None
      | Some _ | None -> scan (k + 1) (Some (f, p))
    end
  in
  scan 0 None

let opt_same a b =
  match (a, b) with Some x, Some y -> same_bits x y | None, None -> true | _ -> false

(* A random stable-ish model: real poles and conjugate pairs spread over
   1e2..1e9 rad/s (now and then a right-half-plane one), residues sized
   so each term contributes a dc gain of 0.1..1e4 of either sign. *)
let random_model rng =
  let mag lo hi = 10.0 ** QCheck.Gen.float_range lo hi rng in
  let sign () = if Random.State.int rng 10 = 0 then 1.0 else -1.0 in
  let gain () = (if Random.State.bool rng then 1.0 else -1.0) *. mag (-1.0) 4.0 in
  let n_real = Random.State.int rng 4 and n_pair = Random.State.int rng 3 in
  let n_real = if n_real + n_pair = 0 then 1 else n_real in
  let terms = ref [] in
  for _ = 1 to n_real do
    let p = sign () *. mag 2.0 9.0 in
    terms := ({ Complex.re = p; im = 0.0 }, { Complex.re = gain () *. Float.abs p; im = 0.0 }) :: !terms
  done;
  for _ = 1 to n_pair do
    let re = sign () *. mag 2.0 9.0 and im = mag 2.0 9.0 in
    let k = { Complex.re = gain () *. Float.abs re; im = gain () *. im } in
    terms := ({ Complex.re; im }, k) :: ({ Complex.re; im = -.im }, Complex.conj k) :: !terms
  done;
  let poles = Array.of_list (List.map fst !terms) and residues = Array.of_list (List.map snd !terms) in
  { Awe.Pade.poles; residues; q = Array.length poles; scale = 1.0 }

(* Moment vectors: a random model's first 14 moments, or entries from
   [entry] (exact zeros, -0.0, wide magnitudes). *)
let random_moments rng =
  if Random.State.int rng 4 > 0 then
    let model = random_model rng in
    Array.init 14 (ref_moment model)
  else Array.init 14 (fun _ -> entry rng)

let prop_pade_fit =
  QCheck.Test.make ~name:"kernels: Pade fit and rom_of_coeffs match the boxed reference" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 31 |] in
      let moments = random_moments rng in
      let scaled = Awe.Pade.scale_moments moments in
      List.for_all
        (fun q ->
          match (Awe.Pade.fit_coeffs ~q scaled, ref_fit_coeffs ~q moments) with
          | Ok c, Ok rc ->
              vec_same c.qpoly rc.qpoly && vec_same c.ppoly rc.ppoly && same_bits c.w0 rc.w0
              && Awe.Pade.series_matches c scaled ~q ~tol:1e-6
                 = ref_series_matches rc moments ~q ~tol:1e-6
              && begin
                   match (Awe.Pade.rom_of_coeffs c ~q, ref_rom_of_coeffs rc ~q) with
                   | Ok r, Ok rr -> roms_same r rr
                   | Error e, Error e' -> e = e'
                   | _ -> false
                 end
          | Error e, Error e' -> e = e'
          | _ -> false)
        [ 1; 2; 3; 4; 5; 6 ])

let prop_pade_moment_eval =
  QCheck.Test.make ~name:"kernels: Pade.moments and Pade.eval match the boxed reference" ~count:400
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 37 |] in
      let rom =
        if Random.State.bool rng then random_model rng
        else begin
          let q = Random.State.int rng 7 in
          let z () = { Complex.re = entry rng; im = entry rng } in
          { Awe.Pade.poles = Array.init q (fun _ -> z ()); residues = Array.init q (fun _ -> z ());
            q; scale = 1.0 }
        end
      in
      let ms = Awe.Pade.moments rom 14 in
      let w = if Random.State.int rng 4 = 0 then entry rng else 10.0 ** QCheck.Gen.float_range 0.0 10.0 rng in
      let out = [| 0.0; 0.0 |] in
      Awe.Pade.eval_into rom ~w out;
      let r = ref_eval rom ~w in
      vec_same ms (Array.init 14 (ref_moment rom))
      && vec_same (Awe.Pade.moments rom 5) (Array.init 5 (ref_moment rom))
      && cpx_same (Awe.Pade.eval rom ~w) r
      && cpx_same { Complex.re = out.(0); im = out.(1) } r)

let prop_rom_scans =
  QCheck.Test.make ~name:"kernels: Rom fit and scans match the boxed reference, memo cold and warm"
    ~count:150
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 41 |] in
      let moments = random_moments rng in
      match (Awe.Rom.of_moments moments, ref_of_moments moments) with
      | Error e, Error e' -> e = e'
      | Ok t, Ok rr ->
          let dc = moments.(0) in
          let f = 10.0 ** QCheck.Gen.float_range 0.0 10.0 rng in
          let pm = ref_phase_margin rr ~dc in
          (* cold: phase_margin scans; warm: unity_gain_freq scanned first *)
          let cold = Awe.Rom.phase_margin t in
          let t' = Result.get_ok (Awe.Rom.of_moments moments) in
          let ugf' = Awe.Rom.unity_gain_freq t' in
          let warm = Awe.Rom.phase_margin t' in
          cpxs_same (Awe.Rom.poles t) rr.poles
          && same_bits (Awe.Rom.dc_gain t) dc
          && same_bits (Awe.Rom.magnitude_at t ~f) (ref_magnitude rr f)
          && cpx_same (Awe.Rom.eval t ~f) (ref_eval rr ~w:(2.0 *. Float.pi *. f))
          && opt_same cold pm && opt_same warm pm
          && opt_same (Awe.Rom.unity_gain_freq t) (ref_crossing rr ~level:1.0)
          && opt_same ugf' (ref_crossing rr ~level:1.0)
          && opt_same (Awe.Rom.bandwidth_3db t)
               (let a0 = Float.abs dc in
                if a0 = 0.0 then None else ref_crossing rr ~level:(a0 /. Float.sqrt 2.0))
          && opt_same (Awe.Rom.gain_margin_db t) (ref_gain_margin_db rr ~dc)
      | _ -> false)

let () =
  Alcotest.run "kernels"
    [
      ( "bits",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_lu_factor;
            prop_lu_solves;
            prop_sparse_of_dense;
            prop_zmat_solve;
            prop_poly_eval_cpx;
            prop_roots_find;
            prop_pade_fit;
            prop_pade_moment_eval;
            prop_rom_scans;
          ]
        @ [ Alcotest.test_case "kernels: Roots.find diverges like the reference" `Quick
              test_roots_diverged ] );
    ]
