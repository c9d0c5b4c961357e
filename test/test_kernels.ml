(* Bitwise tests for the dense numeric kernels. Each kernel indexes its
   storage directly; the rule for editing one is "same operations, same
   order", so a residual check is not enough — a reordered sum passes it.
   Every property here runs a reference implementation, written element by
   element through La.Mat.get/set or boxed Complex.t values, and compares
   the kernel's output with it bit for bit (Int64.bits_of_float), including
   the pivots, the sign and the column where Singular is raised. The same
   rule covers the device models and the DC and transient Newton solves,
   whose references are the plain per-iteration formulations. *)

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

(* --- Device models ---

   Reference MOS and BJT evaluators: Mos_common.make and Bjt.make written
   the plain way, every quantity recomputed where it is used. The MOS
   reference recomputes the threshold, mobility and saturation terms in
   each of its seven channel-current calls and again for the region; the
   BJT reference evaluates each perturbed frame once per current. The
   kernels share that work; every op field must keep its bits. *)

module Ref_mos = struct
  open Devices.Mos_params

  let vt_thermal = 0.02585
  let softplus nvt x = if x > 30.0 *. nvt then x else nvt *. Float.log1p (Float.exp (x /. nvt))

  let smooth_min a b =
    let a4 = a *. a *. a *. a and b4 = b *. b *. b *. b in
    let denom = (a4 +. b4 +. 1e-300) ** 0.25 in
    a *. b /. denom

  let phi_minus_vbs p vbs =
    let x = p.phi -. vbs in
    0.5 *. (x +. Float.sqrt ((x *. x) +. 0.04))

  let threshold p ~leff ~vbs ~vds =
    let ph = phi_minus_vbs p vbs in
    let sqrt_phi = Float.sqrt p.phi in
    match p.level with
    | Level1 -> p.vto +. (p.gamma *. (Float.sqrt ph -. sqrt_phi))
    | Level3 ->
        let sigma = 8.14e-22 *. p.eta /. (p.cox *. (leff ** 3.0)) in
        p.vto +. (p.gamma *. (Float.sqrt ph -. sqrt_phi)) -. (sigma *. vds)
    | Bsim ->
        let sce = p.dvt0 *. Float.exp (-.leff /. p.dvt1) in
        let dibl = p.eta *. Float.exp (-.leff /. (2.0 *. p.dvt1)) *. vds in
        p.vto +. (p.k1 *. (Float.sqrt ph -. sqrt_phi)) -. (p.k2 *. (ph -. p.phi)) -. sce -. dibl

  let mobility_factor p vgst =
    match p.level with
    | Level1 -> 1.0
    | Level3 -> 1.0 /. (1.0 +. (p.theta *. vgst))
    | Bsim ->
        let tox = 3.45e-11 /. p.cox in
        let x = vgst /. tox in
        1.0 /. (1.0 +. (p.ua *. x) +. (p.ub *. x *. x))

  let vdsat_of p ~leff vgst =
    match p.level with
    | Level1 -> vgst
    | Level3 | Bsim ->
        let u0 = p.kp /. p.cox in
        let esat_v = 2.0 *. p.vmax /. u0 *. leff in
        vgst *. esat_v /. (vgst +. esat_v +. 1e-9)

  let lambda_eff p ~leff =
    match p.level with
    | Level1 -> p.lambda
    | Level3 | Bsim -> p.lambda *. Float.sqrt (1e-6 /. Float.max leff 0.05e-6) *. p.kappa /. 0.4

  let channel_current p ~weff ~leff ~vds ~vgs ~vbs =
    let vth = threshold p ~leff ~vbs ~vds in
    let nvt = p.subth_n *. vt_thermal in
    let vgst = softplus nvt (vgs -. vth) in
    let uf = mobility_factor p vgst in
    let beta = p.kp *. uf *. weff /. leff in
    let vdsat = vdsat_of p ~leff vgst in
    let vde = smooth_min vds vdsat in
    beta *. ((vgst -. (0.5 *. vde)) *. vde) *. (1.0 +. (lambda_eff p ~leff *. vds))

  let junction_current isat v =
    let x = v /. vt_thermal in
    if x > 40.0 then isat *. (Float.exp 40.0 *. (1.0 +. (x -. 40.0)) -. 1.0)
    else isat *. (Float.exp x -. 1.0)

  let junction_conductance isat v =
    let x = v /. vt_thermal in
    let g =
      if x > 40.0 then isat *. Float.exp 40.0 /. vt_thermal else isat *. Float.exp x /. vt_thermal
    in
    g +. 1e-12

  let junction_cap c0 pb mj v =
    let fc = 0.5 in
    if v < fc *. pb then c0 /. ((1.0 -. (v /. pb)) ** mj)
    else begin
      let cfc = c0 /. ((1.0 -. fc) ** mj) in
      let slope = c0 *. mj /. pb /. ((1.0 -. fc) ** (mj +. 1.0)) in
      cfc +. (slope *. (v -. (fc *. pb)))
    end

  type frame = { vds : float; vgs : float; vbs : float; swapped : bool }

  let to_frame pol ~vd ~vg ~vs ~vb =
    let sign = match pol with Devices.Sig.N -> 1.0 | Devices.Sig.P -> -1.0 in
    let vd = sign *. vd and vg = sign *. vg and vs = sign *. vs and vb = sign *. vb in
    if vd >= vs then { vds = vd -. vs; vgs = vg -. vs; vbs = vb -. vs; swapped = false }
    else { vds = vs -. vd; vgs = vg -. vd; vbs = vb -. vd; swapped = true }

  let make p ~w ~l ~m ~vd ~vg ~vs ~vb =
    let weff = Float.max w 0.1e-6 in
    let leff = Float.max (l -. (2.0 *. p.ld)) 0.05e-6 in
    let sign = match p.pol with Devices.Sig.N -> 1.0 | Devices.Sig.P -> -1.0 in
    let id_ext ~vd ~vg ~vs ~vb =
      let f = to_frame p.pol ~vd ~vg ~vs ~vb in
      let ids = channel_current p ~weff ~leff ~vds:f.vds ~vgs:f.vgs ~vbs:f.vbs in
      let dir = if f.swapped then -1.0 else 1.0 in
      sign *. dir *. m *. ids
    in
    let id0 = id_ext ~vd ~vg ~vs ~vb in
    let h = 1e-5 in
    let gm = (id_ext ~vd ~vg:(vg +. h) ~vs ~vb -. id_ext ~vd ~vg:(vg -. h) ~vs ~vb) /. (2.0 *. h) in
    let gds = (id_ext ~vd:(vd +. h) ~vg ~vs ~vb -. id_ext ~vd:(vd -. h) ~vg ~vs ~vb) /. (2.0 *. h) in
    let gmbs = (id_ext ~vd ~vg ~vs ~vb:(vb +. h) -. id_ext ~vd ~vg ~vs ~vb:(vb -. h)) /. (2.0 *. h) in
    let aj = weff *. p.ldiff *. m in
    let isat = Float.max (p.js *. aj) 1e-18 in
    let vbd_f = sign *. (vb -. vd) in
    let vbs_f = sign *. (vb -. vs) in
    let ibd = junction_current isat vbd_f in
    let ibs = junction_current isat vbs_f in
    let gbd = junction_conductance isat vbd_f in
    let gbs = junction_conductance isat vbs_f in
    let ibd_ = sign *. ibd and ibs_ = sign *. ibs in
    let f = to_frame p.pol ~vd ~vg ~vs ~vb in
    let vth = threshold p ~leff ~vbs:f.vbs ~vds:f.vds in
    let nvt = p.subth_n *. vt_thermal in
    let vgst_raw = f.vgs -. vth in
    let vgst = softplus nvt vgst_raw in
    let vdsat = vdsat_of p ~leff vgst in
    let region =
      if vgst_raw < -6.0 *. nvt then Devices.Sig.Off
      else if vgst_raw < 2.0 *. nvt then Devices.Sig.Subthreshold
      else if f.vds >= 0.95 *. vdsat then Devices.Sig.Saturation
      else Devices.Sig.Linear
    in
    let coxt = p.cox *. weff *. leff *. m in
    let ov_s = p.cgso *. weff *. m and ov_d = p.cgdo *. weff *. m in
    let ov_b = p.cgbo *. leff *. m in
    let cgs_i, cgd_i, cgb_i =
      match region with
      | Devices.Sig.Off -> (0.0, 0.0, coxt)
      | Devices.Sig.Subthreshold -> (coxt /. 3.0, 0.0, 2.0 *. coxt /. 3.0)
      | Devices.Sig.Saturation -> (2.0 *. coxt /. 3.0, 0.0, 0.0)
      | Devices.Sig.Linear -> (coxt /. 2.0, coxt /. 2.0, 0.0)
    in
    let cgs_f, cgd_f = if f.swapped then (cgd_i, cgs_i) else (cgs_i, cgd_i) in
    let cj0 = p.cj *. aj and cjsw0 = p.cjsw *. ((2.0 *. p.ldiff) +. weff) *. m in
    let cbd = junction_cap cj0 p.pb p.mj vbd_f +. junction_cap cjsw0 p.pb p.mjsw vbd_f in
    let cbs = junction_cap cj0 p.pb p.mj vbs_f +. junction_cap cjsw0 p.pb p.mjsw vbs_f in
    {
      Devices.Sig.id_ = id0;
      ibd_;
      ibs_;
      gm;
      gds;
      gmbs;
      gbd;
      gbs;
      cgs = cgs_f +. ov_s;
      cgd = cgd_f +. ov_d;
      cgb = cgb_i +. ov_b;
      cbd;
      cbs;
      vth;
      vdsat;
      vgst;
      vgst_raw;
      vds_mag = f.vds;
      region;
    }
end

module Ref_bjt = struct
  open Devices.Bjt

  let vt = Ref_mos.vt_thermal
  let limited_exp x = if x > 40.0 then Float.exp 40.0 *. (1.0 +. (x -. 40.0)) else Float.exp x

  let currents p ~area ~vbe ~vbc =
    let is_ = p.is_ *. area in
    let ifwd = is_ *. (limited_exp (vbe /. vt) -. 1.0) in
    let irev = is_ *. (limited_exp (vbc /. vt) -. 1.0) in
    let q1 = 1.0 /. Float.max (1.0 -. (vbc /. p.vaf) -. (vbe /. p.var_)) 0.05 in
    let q2 = ifwd /. (p.ikf *. area) in
    let qb = q1 /. 2.0 *. (1.0 +. Float.sqrt (1.0 +. (4.0 *. Float.max q2 0.0))) in
    let ict = (ifwd -. irev) /. qb in
    let ib = (ifwd /. p.bf) +. (irev /. p.br) in
    let ic = ict -. (irev /. p.br) in
    (ic, ib)

  let make p ~area ~vc ~vb ~ve =
    let sign = match p.pol with Devices.Sig.N -> 1.0 | Devices.Sig.P -> -1.0 in
    let frame ~vc ~vb ~ve =
      let vbe = sign *. (vb -. ve) and vbc = sign *. (vb -. vc) in
      let ic, ib = currents p ~area ~vbe ~vbc in
      (sign *. ic, sign *. ib)
    in
    let ic0, ib0 = frame ~vc ~vb ~ve in
    let h = 1e-6 in
    let dc_dvb =
      let icp, _ = frame ~vc ~vb:(vb +. h) ~ve and icm, _ = frame ~vc ~vb:(vb -. h) ~ve in
      (icp -. icm) /. (2.0 *. h)
    in
    let db_dvb =
      let _, ibp = frame ~vc ~vb:(vb +. h) ~ve and _, ibm = frame ~vc ~vb:(vb -. h) ~ve in
      (ibp -. ibm) /. (2.0 *. h)
    in
    let dc_dvc =
      let icp, _ = frame ~vc:(vc +. h) ~vb ~ve and icm, _ = frame ~vc:(vc -. h) ~vb ~ve in
      (icp -. icm) /. (2.0 *. h)
    in
    let db_dvc =
      let _, ibp = frame ~vc:(vc +. h) ~vb ~ve and _, ibm = frame ~vc:(vc -. h) ~vb ~ve in
      (ibp -. ibm) /. (2.0 *. h)
    in
    let vbe_f = sign *. (vb -. ve) and vbc_f = sign *. (vb -. vc) in
    let cje_dep = Ref_mos.junction_cap (p.cje *. area) p.vje p.mje vbe_f in
    let cjc_dep = Ref_mos.junction_cap (p.cjc *. area) p.vjc p.mjc vbc_f in
    let cdiff = p.tf *. Float.max dc_dvb 0.0 in
    let region =
      if vbe_f < 0.4 then Devices.Sig.Off
      else if vbc_f > 0.3 then Devices.Sig.Linear
      else Devices.Sig.Saturation
    in
    {
      Devices.Sig.ic = ic0;
      ib = ib0;
      bjt_gm = dc_dvb;
      gpi = Float.max db_dvb 1e-12;
      go = Float.max dc_dvc 1e-12;
      gmu = db_dvc;
      cpi = cje_dep +. cdiff;
      cmu = cjc_dep;
      ccs = p.ccs0 *. area;
      vbe_f;
      bjt_region = region;
    }
end

let mos_op_same (a : Devices.Sig.mos_op) (b : Devices.Sig.mos_op) =
  let open Devices.Sig in
  vec_same
    [| a.id_; a.ibd_; a.ibs_; a.gm; a.gds; a.gmbs; a.gbd; a.gbs; a.cgs; a.cgd; a.cgb; a.cbd; a.cbs;
       a.vth; a.vdsat; a.vgst; a.vgst_raw; a.vds_mag |]
    [| b.id_; b.ibd_; b.ibs_; b.gm; b.gds; b.gmbs; b.gbd; b.gbs; b.cgs; b.cgd; b.cgb; b.cbd; b.cbs;
       b.vth; b.vdsat; b.vgst; b.vgst_raw; b.vds_mag |]
  && a.region = b.region

let bjt_op_same (a : Devices.Sig.bjt_op) (b : Devices.Sig.bjt_op) =
  let open Devices.Sig in
  vec_same
    [| a.ic; a.ib; a.bjt_gm; a.gpi; a.go; a.gmu; a.cpi; a.cmu; a.ccs; a.vbe_f |]
    [| b.ic; b.ib; b.bjt_gm; b.gpi; b.go; b.gmu; b.cpi; b.cmu; b.ccs; b.vbe_f |]
  && a.bjt_region = b.bjt_region

(* MOS inputs: every level and polarity of both processes, geometries that
   reach the width and length clamps, and terminal voltages that swap
   drain and source, switch the channel off, sit in subthreshold (the gate
   a few tenths of a volt around the threshold) and forward-bias the bulk
   junctions past fc*pb. *)
let mos_case rng =
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let pol = if Random.State.bool rng then Devices.Sig.N else Devices.Sig.P in
  let p =
    Option.get
      (Devices.Process.mos ~process:(pick Devices.Process.known) ~level:(pick [ "1"; "3"; "bsim" ]) ~pol)
  in
  let w = 10.0 ** QCheck.Gen.float_range (-7.5) (-3.5) rng in
  let l = 10.0 ** QCheck.Gen.float_range (-7.0) (-4.5) rng in
  let m = float_of_int (1 + Random.State.int rng 4) in
  let volt () = QCheck.Gen.float_range (-5.0) 5.0 rng in
  let vs = volt () and vb = volt () in
  let vd = if Random.State.int rng 8 = 0 then vs else volt () in
  let sign = match pol with Devices.Sig.N -> 1.0 | Devices.Sig.P -> -1.0 in
  let vg =
    if Random.State.bool rng then volt ()
    else Float.min vs vd +. (sign *. (p.Devices.Mos_params.vto +. QCheck.Gen.float_range (-0.4) 0.2 rng))
  in
  (p, w, l, m, vd, vg, vs, vb)

let prop_mos_make =
  QCheck.Test.make ~name:"kernels: Mos_common.make matches the plain reference" ~count:3000
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 43 |] in
      let p, w, l, m, vd, vg, vs, vb = mos_case rng in
      let weff = Float.max w 0.1e-6 and leff = Float.max (l -. (2.0 *. p.Devices.Mos_params.ld)) 0.05e-6 in
      let f = Ref_mos.to_frame p.Devices.Mos_params.pol ~vd ~vg ~vs ~vb in
      mos_op_same (Devices.Mos_common.make p ~w ~l ~m ~vd ~vg ~vs ~vb) (Ref_mos.make p ~w ~l ~m ~vd ~vg ~vs ~vb)
      && same_bits
           (Devices.Mos_common.channel_current p ~weff ~leff ~vds:f.vds ~vgs:f.vgs ~vbs:f.vbs)
           (Ref_mos.channel_current p ~weff ~leff ~vds:f.vds ~vgs:f.vgs ~vbs:f.vbs))

(* BJT inputs: both polarities, areas over a decade, and junction voltages
   from reverse bias through forward active, saturation and the exp
   linearization above 40 thermal voltages. *)
let prop_bjt_make =
  QCheck.Test.make ~name:"kernels: Bjt.make matches the plain reference" ~count:3000
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 47 |] in
      let pol = if Random.State.bool rng then Devices.Sig.N else Devices.Sig.P in
      let p = Option.get (Devices.Process.bjt ~process:"p2u" ~pol) in
      let sign = match pol with Devices.Sig.N -> 1.0 | Devices.Sig.P -> -1.0 in
      let area = 10.0 ** QCheck.Gen.float_range (-0.5) 1.0 rng in
      let ve = QCheck.Gen.float_range (-3.0) 3.0 rng in
      let vb = ve +. (sign *. QCheck.Gen.float_range (-1.0) 1.3 rng) in
      let vc = vb +. (sign *. QCheck.Gen.float_range (-3.0) 1.2 rng) in
      bjt_op_same (Devices.Bjt.make p ~area ~vc ~vb ~ve) (Ref_bjt.make p ~area ~vc ~vb ~ve))

(* --- DC and transient solves ---

   Reference Newton core: each iteration looks every model up in the
   registry, walks every element-value expression and finds every branch
   row by name, the converged point's devices are evaluated apart from
   the iterations, and each timestep rebuilds the circuit with its
   stimulus and finds each device's operating point by name. The solvers
   resolve all of that once per solve; the iterates, operating points,
   iteration counts, transient states and error messages must keep their
   bits. *)

module Ref_dc = struct
  module C = Netlist.Circuit
  module S = Mna.Sysmat

  let assemble idx ~value ~registry ~gmin ~srcscale ~jac (x : float array) =
    let t = idx in
    let n = t.S.size in
    let j = jac in
    La.Mat.fill j 0.0;
    let b = La.Vec.create n in
    let v node = if node = 0 then 0.0 else x.(S.node_row t node) in
    let add_j = S.add_g t j in
    let nrow = S.node_row t in
    let brow name =
      match S.branch_of_name t name with
      | Some r -> r
      | None -> failwith ("reference to unknown voltage-defined element " ^ name)
    in
    for node = 1 to t.S.n_nodes - 1 do
      La.Mat.add_to j (nrow node) (nrow node) gmin
    done;
    let stamp_mos name d g s bb model w l m =
      match Devices.Registry.find_exn registry model with
      | Devices.Sig.Bjt _ -> failwith (name ^ ": MOS element with BJT model")
      | Devices.Sig.Mos { eval; _ } ->
          let op = eval ~w ~l ~m ~vd:(v d) ~vg:(v g) ~vs:(v s) ~vb:(v bb) in
          let open Devices.Sig in
          let gsum = op.gm +. op.gds +. op.gmbs in
          let ieq =
            op.id_ -. (op.gm *. v g) -. (op.gds *. v d) -. (op.gmbs *. v bb) +. (gsum *. v s)
          in
          let rd = nrow d and rs = nrow s in
          add_j rd (nrow g) op.gm;
          add_j rd (nrow d) op.gds;
          add_j rd (nrow bb) op.gmbs;
          add_j rd (nrow s) (-.gsum);
          add_j rs (nrow g) (-.op.gm);
          add_j rs (nrow d) (-.op.gds);
          add_j rs (nrow bb) (-.op.gmbs);
          add_j rs (nrow s) gsum;
          S.add_vec rd (-.ieq) b;
          S.add_vec rs ieq b;
          let stamp_junction nd g_j i_now =
            let ieq_j = i_now -. (g_j *. (v bb -. v nd)) in
            S.stamp_conductance t j bb nd g_j;
            S.add_vec (nrow bb) (-.ieq_j) b;
            S.add_vec (nrow nd) ieq_j b
          in
          stamp_junction d op.gbd op.ibd_;
          stamp_junction s op.gbs op.ibs_
    in
    let stamp_bjt name c bb e model area =
      match Devices.Registry.find_exn registry model with
      | Devices.Sig.Mos _ -> failwith (name ^ ": BJT element with MOS model")
      | Devices.Sig.Bjt { eval; _ } ->
          let op = eval ~area ~vc:(v c) ~vb:(v bb) ~ve:(v e) in
          let open Devices.Sig in
          let rc = nrow c and rb = nrow bb and re_ = nrow e in
          let dic_dvc = op.go and dic_dvb = op.bjt_gm in
          let dic_dve = -.(dic_dvc +. dic_dvb) in
          let dib_dvc = op.gmu and dib_dvb = op.gpi in
          let dib_dve = -.(dib_dvc +. dib_dvb) in
          add_j rc (nrow c) dic_dvc;
          add_j rc (nrow bb) dic_dvb;
          add_j rc (nrow e) dic_dve;
          add_j rb (nrow c) dib_dvc;
          add_j rb (nrow bb) dib_dvb;
          add_j rb (nrow e) dib_dve;
          add_j re_ (nrow c) (-.(dic_dvc +. dib_dvc));
          add_j re_ (nrow bb) (-.(dic_dvb +. dib_dvb));
          add_j re_ (nrow e) (-.(dic_dve +. dib_dve));
          let ieq_c = op.ic -. (dic_dvc *. v c) -. (dic_dvb *. v bb) -. (dic_dve *. v e) in
          let ieq_b = op.ib -. (dib_dvc *. v c) -. (dib_dvb *. v bb) -. (dib_dve *. v e) in
          S.add_vec rc (-.ieq_c) b;
          S.add_vec rb (-.ieq_b) b;
          S.add_vec re_ (ieq_c +. ieq_b) b
    in
    let handle (e : C.element) =
      match e with
      | C.Resistor { name; n1; n2; value = ve } ->
          let r = value ve in
          if r <= 0.0 then failwith (name ^ ": non-positive resistance");
          S.stamp_conductance t j n1 n2 (1.0 /. r)
      | C.Capacitor _ -> ()
      | C.Inductor { name; n1; n2; _ } ->
          let row = brow name in
          add_j row (nrow n1) 1.0;
          add_j row (nrow n2) (-1.0);
          add_j (nrow n1) row 1.0;
          add_j (nrow n2) row (-1.0)
      | C.Vsource { name; np; nn; dc; _ } ->
          let row = brow name in
          add_j row (nrow np) 1.0;
          add_j row (nrow nn) (-1.0);
          add_j (nrow np) row 1.0;
          add_j (nrow nn) row (-1.0);
          S.add_vec row (srcscale *. value dc) b
      | C.Isource { np; nn; dc; _ } ->
          let i = srcscale *. value dc in
          S.add_vec (nrow np) (-.i) b;
          S.add_vec (nrow nn) i b
      | C.Vcvs { name; np; nn; ncp; ncn; gain } ->
          let row = brow name in
          let g = value gain in
          add_j row (nrow np) 1.0;
          add_j row (nrow nn) (-1.0);
          add_j row (nrow ncp) (-.g);
          add_j row (nrow ncn) g;
          add_j (nrow np) row 1.0;
          add_j (nrow nn) row (-1.0)
      | C.Vccs { np; nn; ncp; ncn; gm; _ } -> S.stamp_vccs t j np nn ncp ncn (value gm)
      | C.Cccs { np; nn; vsrc; gain; _ } ->
          let col = brow vsrc in
          add_j (nrow np) col (value gain);
          add_j (nrow nn) col (-.value gain)
      | C.Ccvs { name; np; nn; vsrc; r } ->
          let row = brow name in
          let col = brow vsrc in
          add_j row (nrow np) 1.0;
          add_j row (nrow nn) (-1.0);
          add_j row col (-.value r);
          add_j (nrow np) row 1.0;
          add_j (nrow nn) row (-1.0)
      | C.Mosfet { name; d; g; s; b = bb; model; w; l; mult } ->
          stamp_mos name d g s bb model (value w) (value l) (value mult)
      | C.Bjt { name; c; b = bb; e; model; area } -> stamp_bjt name c bb e model (value area)
    in
    Array.iter handle t.S.circuit.C.elements;
    b

  let collect_ops idx ~value ~registry (x : float array) =
    let v node = if node = 0 then 0.0 else x.(S.node_row idx node) in
    List.filter_map
      (fun (e : C.element) ->
        match e with
        | C.Mosfet { name; d; g; s; b; model; w; l; mult } -> begin
            match Devices.Registry.find_exn registry model with
            | Devices.Sig.Mos { eval; _ } ->
                let op =
                  eval ~w:(value w) ~l:(value l) ~m:(value mult) ~vd:(v d) ~vg:(v g) ~vs:(v s)
                    ~vb:(v b)
                in
                Some (name, Mna.Dc.Mos_op op)
            | Devices.Sig.Bjt _ -> None
          end
        | C.Bjt { name; c; b; e = ne; model; area } -> begin
            match Devices.Registry.find_exn registry model with
            | Devices.Sig.Bjt { eval; _ } ->
                let op = eval ~area:(value area) ~vc:(v c) ~vb:(v b) ~ve:(v ne) in
                Some (name, Mna.Dc.Bjt_op op)
            | Devices.Sig.Mos _ -> None
          end
        | C.Resistor _ | C.Capacitor _ | C.Inductor _ | C.Vsource _ | C.Isource _ | C.Vcvs _
        | C.Vccs _ | C.Cccs _ | C.Ccvs _ ->
            None)
      (Array.to_list idx.S.circuit.C.elements)

  let newton idx ~value ~registry ~gmin ~srcscale ~max_iter x =
    let n = idx.S.size in
    let x = Array.copy x in
    let jac = La.Mat.create n n in
    let rec loop it =
      if it >= max_iter then (x, false, it)
      else begin
        let b = assemble idx ~value ~registry ~gmin ~srcscale ~jac x in
        match La.Lu.factor_in_place jac with
        | exception La.Lu.Singular _ -> (x, false, it)
        | lu ->
            let xnew = La.Lu.solve lu b in
            let maxdv = ref 0.0 in
            for k = 0 to n - 1 do
              let dv = xnew.(k) -. x.(k) in
              let limited =
                if k < idx.S.n_nodes - 1 then Float.max (-0.5) (Float.min 0.5 dv) else dv
              in
              if k < idx.S.n_nodes - 1 then maxdv := Float.max !maxdv (Float.abs dv);
              x.(k) <- x.(k) +. limited
            done;
            if !maxdv < 1e-9 +. 1e-6 then (x, true, it + 1) else loop (it + 1)
      end
    in
    loop 0

  let source_ramp idx ~value ~registry ~max_iter ~total_iters scales =
    let x =
      List.fold_left
        (fun x scale ->
          let x', _, it = newton idx ~value ~registry ~gmin:1e-9 ~srcscale:scale ~max_iter x in
          total_iters := !total_iters + it;
          x')
        (Array.make idx.S.size 0.0) scales
    in
    let x', ok, it = newton idx ~value ~registry ~gmin:1e-12 ~srcscale:1.0 ~max_iter x in
    total_iters := !total_iters + it;
    (x', ok)

  let converge idx ~value ~registry run =
    try
      let total_iters = ref 0 in
      let x_final, ok = run total_iters in
      if not ok then Error "dc: Newton-Raphson failed to converge"
      else
        Ok
          {
            Mna.Dc.index = idx;
            x = x_final;
            ops = collect_ops idx ~value ~registry x_final;
            iterations = !total_iters;
          }
    with
    | Failure msg -> Error ("dc: " ^ msg)
    | Netlist.Expr.Eval_error msg -> Error ("dc: " ^ msg)

  let solve ?(max_iter = 200) ?x0 ~value ~registry circuit =
    let idx = S.of_circuit circuit in
    let x = match x0 with Some v -> Array.copy v | None -> Array.make idx.S.size 0.0 in
    converge idx ~value ~registry (fun total_iters ->
        let direct =
          match x0 with
          | None -> None
          | Some _ ->
              let x', ok, it =
                newton idx ~value ~registry ~gmin:1e-12 ~srcscale:1.0 ~max_iter x
              in
              total_iters := it;
              if ok then Some x' else None
        in
        let run_schedule x =
          List.fold_left
            (fun (x, ok_all) gmin ->
              let x', ok, it = newton idx ~value ~registry ~gmin ~srcscale:1.0 ~max_iter x in
              total_iters := !total_iters + it;
              (x', ok_all && ok))
            (x, true) [ 1e-3; 1e-6; 1e-9; 1e-12 ]
        in
        let x_final, ok = match direct with Some x' -> (x', true) | None -> run_schedule x in
        if ok then (x_final, ok)
        else
          source_ramp idx ~value ~registry ~max_iter ~total_iters [ 0.1; 0.3; 0.5; 0.7; 0.9; 1.0 ])

  let solve_ramped ~value ~registry circuit =
    let idx = S.of_circuit circuit in
    converge idx ~value ~registry (fun total_iters ->
        source_ramp idx ~value ~registry ~max_iter:200 ~total_iters
          (List.init 50 (fun k -> float_of_int (k + 1) /. 50.0)))
end

module Ref_tran = struct
  module C = Netlist.Circuit
  module S = Mna.Sysmat

  let circuit_at stimulus t (circuit : C.t) =
    let subst (e : C.element) =
      match e with
      | C.Vsource ({ name; _ } as r) -> begin
          match List.assoc_opt name stimulus with
          | Some f -> C.Vsource { r with dc = Netlist.Expr.Const (f t) }
          | None -> e
        end
      | C.Isource ({ name; _ } as r) -> begin
          match List.assoc_opt name stimulus with
          | Some f -> C.Isource { r with dc = Netlist.Expr.Const (f t) }
          | None -> e
        end
      | C.Resistor _ | C.Capacitor _ | C.Inductor _ | C.Vcvs _ | C.Vccs _ | C.Cccs _ | C.Ccvs _
      | C.Mosfet _ | C.Bjt _ ->
          e
    in
    { circuit with C.elements = Array.map subst circuit.C.elements }

  let stamp_caps idx ~value ~ops ~h (xold : float array) j b =
    let vold node = if node = 0 then 0.0 else xold.(S.node_row idx node) in
    let companion n1 n2 cv =
      if cv > 0.0 then begin
        let geq = cv /. h in
        S.stamp_conductance idx j n1 n2 geq;
        let ihist = geq *. (vold n1 -. vold n2) in
        S.add_vec (S.node_row idx n1) ihist b;
        S.add_vec (S.node_row idx n2) (-.ihist) b
      end
    in
    Array.iter
      (fun (e : C.element) ->
        match e with
        | C.Capacitor { n1; n2; value = ve; _ } -> companion n1 n2 (value ve)
        | C.Mosfet { name; d; g; s; b = nb; _ } -> begin
            match List.assoc_opt name ops with
            | Some (Mna.Dc.Mos_op op) ->
                let open Devices.Sig in
                companion g s op.cgs;
                companion g d op.cgd;
                companion g nb op.cgb;
                companion nb d op.cbd;
                companion nb s op.cbs
            | Some (Mna.Dc.Bjt_op _) | None -> ()
          end
        | C.Bjt { name; c; b = nb; e = ne; _ } -> begin
            match List.assoc_opt name ops with
            | Some (Mna.Dc.Bjt_op op) ->
                let open Devices.Sig in
                companion nb ne op.cpi;
                companion nb c op.cmu;
                companion c 0 op.ccs
            | Some (Mna.Dc.Mos_op _) | None -> ()
          end
        | C.Resistor _ | C.Inductor _ | C.Vsource _ | C.Isource _ | C.Vcvs _ | C.Vccs _
        | C.Cccs _ | C.Ccvs _ ->
            ())
      idx.S.circuit.C.elements

  let step ~value ~registry ~h ~stimulus ~t ~jac circuit (xold : float array) ops_prev =
    let ckt_t = circuit_at stimulus t circuit in
    let idx = S.of_circuit ckt_t in
    let x = Array.copy xold in
    let rec newton it =
      if it > 60 then Error "tran: Newton failed in timestep"
      else begin
        let b = Ref_dc.assemble idx ~value ~registry ~gmin:1e-12 ~srcscale:1.0 ~jac x in
        stamp_caps idx ~value ~ops:ops_prev ~h xold jac b;
        match La.Lu.factor_in_place jac with
        | exception La.Lu.Singular _ -> Error "tran: singular Jacobian"
        | lu ->
            let xnew = La.Lu.solve lu b in
            let maxdv = ref 0.0 in
            for k = 0 to Array.length x - 1 do
              let dv = xnew.(k) -. x.(k) in
              let lim =
                if k < idx.S.n_nodes - 1 then Float.max (-0.5) (Float.min 0.5 dv) else dv
              in
              if k < idx.S.n_nodes - 1 then maxdv := Float.max !maxdv (Float.abs dv);
              x.(k) <- x.(k) +. lim
            done;
            if !maxdv < 1e-6 then Ok x else newton (it + 1)
      end
    in
    Result.map (fun x -> (x, Ref_dc.collect_ops idx ~value ~registry x)) (newton 0)

  let simulate ~value ~registry ~tstop ~dt ~stimulus circuit =
    let ckt0 = circuit_at stimulus 0.0 circuit in
    match Ref_dc.solve ~value ~registry ckt0 with
    | Error e -> Error ("tran: initial operating point: " ^ e)
    | Ok sol0 ->
        let idx = sol0.Mna.Dc.index in
        let nsteps = Stdlib.max 1 (int_of_float (Float.ceil (tstop /. dt *. (1.0 -. 1e-12)))) in
        let times = Array.init (nsteps + 1) (fun k -> Float.min (float_of_int k *. dt) tstop) in
        let states = Array.make (nsteps + 1) sol0.Mna.Dc.x in
        let jac = La.Mat.create idx.S.size idx.S.size in
        let rec run k x ops =
          if k > nsteps then Ok { Mna.Tran.index = idx; times; states }
          else begin
            let h = times.(k) -. times.(k - 1) in
            match step ~value ~registry ~h ~stimulus ~t:times.(k) ~jac circuit x ops with
            | Error e -> Error e
            | Ok (x', ops') ->
                states.(k) <- x';
                run (k + 1) x' ops'
          end
        in
        run 1 sol0.Mna.Dc.x sol0.Mna.Dc.ops
end

let op_info_same a b =
  match (a, b) with
  | Mna.Dc.Mos_op a, Mna.Dc.Mos_op b -> mos_op_same a b
  | Mna.Dc.Bjt_op a, Mna.Dc.Bjt_op b -> bjt_op_same a b
  | _ -> false

let dc_same (a : (Mna.Dc.solution, string) result) b =
  match (a, b) with
  | Ok a, Ok b ->
      vec_same a.Mna.Dc.x b.Mna.Dc.x
      && a.iterations = b.iterations
      && a.index.Mna.Sysmat.size = b.index.Mna.Sysmat.size
      && List.length a.ops = List.length b.ops
      && List.for_all2 (fun (n, o) (n', o') -> n = n' && op_info_same o o') a.ops b.ops
  | Error e, Error e' -> e = e'
  | _ -> false

let tran_same (a : (Mna.Tran.t, string) result) b =
  match (a, b) with
  | Ok a, Ok b ->
      vec_same a.Mna.Tran.times b.Mna.Tran.times
      && Array.length a.states = Array.length b.states
      && Array.for_all2 vec_same a.states b.states
  | Error e, Error e' -> e = e'
  | _ -> false

(* Either run's exception, as a comparable error. *)
let guarded f = try f () with e -> Error ("raised " ^ Printexc.to_string e)

(* The suite problems, compiled once. *)
let suite =
  lazy
    (List.filter_map
       (fun (e : Suite.Ckts.entry) ->
         Result.to_option (Core.Compile.compile_source e.Suite.Ckts.source))
       Suite.Ckts.all)

(* Element values at a design state drawn uniformly (log-uniformly on log
   grids) from every user variable's range, or at the start state. *)
let random_values rng (p : Core.Problem.t) =
  let st = Core.State.snapshot p.Core.Problem.state0 in
  if Random.State.int rng 4 > 0 then
    Array.iteri
      (fun i info ->
        match info with
        | Core.State.User { vmin; vmax; grid; _ } ->
            let u = Random.State.float rng 1.0 in
            let v =
              match grid with
              | Core.State.Log_grid when vmin > 0.0 -> vmin *. ((vmax /. vmin) ** u)
              | Core.State.Log_grid | Core.State.Lin_grid -> vmin +. (u *. (vmax -. vmin))
            in
            Core.State.set_initial st i v
        | Core.State.Node_voltage _ -> ())
      st.Core.State.info;
  Netlist.Expr.eval (Core.Eval.value_env p st)

let pick rng l = List.nth l (Random.State.int rng (List.length l))

let prop_dc_solve =
  QCheck.Test.make ~name:"kernels: Dc.solve matches the per-iteration reference" ~count:200
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 53 |] in
      let p = pick rng (Lazy.force suite) in
      let value = random_values rng p in
      let registry = p.Core.Problem.registry in
      let circuit =
        pick rng (p.Core.Problem.bias :: List.map (fun j -> j.Core.Problem.jig_circuit) p.Core.Problem.jigs)
      in
      let size = (Mna.Sysmat.of_circuit circuit).Mna.Sysmat.size in
      match Random.State.int rng 8 with
      | 0 ->
          dc_same
            (guarded (fun () -> Mna.Dc.solve_ramped ~value ~registry circuit))
            (guarded (fun () -> Ref_dc.solve_ramped ~value ~registry circuit))
      | k ->
          let x0 =
            if k <= 2 then Some (Array.init size (fun _ -> QCheck.Gen.float_range (-2.0) 2.0 rng))
            else None
          in
          let max_iter = if k = 3 then 2 + Random.State.int rng 20 else 200 in
          dc_same
            (guarded (fun () -> Mna.Dc.solve ~max_iter ?x0 ~value ~registry circuit))
            (guarded (fun () -> Ref_dc.solve ~max_iter ?x0 ~value ~registry circuit)))

(* Transients of every jig that has a transfer function: a step on the
   tf's source at a tenth of the horizon, under the jig's .tran card at its
   in-loop step, or a default 100-step horizon. *)
let prop_tran_simulate =
  QCheck.Test.make ~name:"kernels: Tran.simulate matches the per-step reference" ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 59 |] in
      let p = pick rng (Lazy.force suite) in
      let value = random_values rng p in
      let registry = p.Core.Problem.registry in
      let jigs = List.filter (fun j -> j.Core.Problem.tfs <> []) p.Core.Problem.jigs in
      let j = pick rng jigs in
      let _, ports = pick rng j.Core.Problem.tfs in
      let src = ports.Core.Problem.src in
      let tstop, dt, vstep =
        match j.Core.Problem.jig_tran with
        | Some tc ->
            ( tc.Netlist.Ast.tr_tstop,
              Option.value ~default:tc.Netlist.Ast.tr_dt tc.Netlist.Ast.tr_dtloop,
              tc.Netlist.Ast.tr_vstep )
        | None -> (1e-6, 1e-8, 0.1)
      in
      let v0 =
        match Netlist.Circuit.find_element j.Core.Problem.jig_circuit src with
        | Netlist.Circuit.Vsource { dc; _ } | Netlist.Circuit.Isource { dc; _ } -> (
            try value dc with Netlist.Expr.Eval_error _ -> 0.0)
        | _ -> 0.0
        | exception Not_found -> 0.0
      in
      let t_step = tstop /. 10.0 in
      let stimulus = [ (src, fun t -> if t >= t_step then v0 +. vstep else v0) ] in
      let circuit = j.Core.Problem.jig_circuit in
      tran_same
        (guarded (fun () -> Mna.Tran.simulate ~value ~registry ~tstop ~dt ~stimulus circuit))
        (guarded (fun () -> Ref_tran.simulate ~value ~registry ~tstop ~dt ~stimulus circuit)))

(* Bad circuits fail with the first element error in element order, the
   same string as the reference. *)
let test_dc_errors () =
  let registry = Result.get_ok (Devices.Registry.build ~process:"p2u" []) in
  let value = Netlist.Expr.eval { Netlist.Expr.lookup = (fun _ -> raise Not_found); call = (fun _ _ -> raise Not_found) } in
  let k x = Netlist.Expr.Const x in
  let node_names = [| "0"; "a"; "b" |] in
  let vdd = Netlist.Circuit.Vsource { name = "vdd"; np = 1; nn = 0; dc = k 3.0; ac = 0.0 } in
  let load = Netlist.Circuit.Resistor { name = "rl"; n1 = 1; n2 = 2; value = k 1e3 } in
  let mos model =
    Netlist.Circuit.Mosfet
      { name = "m1"; d = 2; g = 1; s = 0; b = 0; model; w = k 10e-6; l = k 2e-6; mult = k 1.0 }
  in
  let cases =
    [
      ( [ vdd; Netlist.Circuit.Resistor { name = "r1"; n1 = 2; n2 = 0; value = k 0.0 } ],
        "dc: r1: non-positive resistance" );
      ([ vdd; load; mos "nosuch" ], "dc: unknown device model \"nosuch\"");
      ([ vdd; load; mos "npn" ], "dc: m1: MOS element with BJT model");
      ( [ vdd; load; Netlist.Circuit.Cccs { name = "f1"; np = 2; nn = 0; vsrc = "vx"; gain = k 2.0 } ],
        "dc: reference to unknown voltage-defined element vx" );
      (* The first bad element wins, whatever comes after it. *)
      ( [ vdd; mos "nosuch"; Netlist.Circuit.Resistor { name = "r1"; n1 = 2; n2 = 0; value = k (-1.0) } ],
        "dc: unknown device model \"nosuch\"" );
      ( [ vdd; load; Netlist.Circuit.Resistor { name = "r2"; n1 = 2; n2 = 0; value = Netlist.Expr.Ref [ "rx" ] }; mos "npn" ],
        "dc: unknown reference rx" );
    ]
  in
  List.iter
    (fun (elements, want) ->
      let circuit = { Netlist.Circuit.node_names; elements = Array.of_list elements } in
      let got = Mna.Dc.solve ~value ~registry circuit in
      let reference = Ref_dc.solve ~value ~registry circuit in
      Alcotest.(check bool) (want ^ ": same as the reference") true (dc_same got reference);
      (match got with
      | Error e -> Alcotest.(check string) "error" want e
      | Ok _ -> Alcotest.failf "%s: solved" want);
      let stimulus = [ ("vdd", fun _ -> 3.0) ] in
      Alcotest.(check bool) (want ^ ": transient same as the reference") true
        (tran_same
           (Mna.Tran.simulate ~value ~registry ~tstop:1e-8 ~dt:1e-9 ~stimulus circuit)
           (Ref_tran.simulate ~value ~registry ~tstop:1e-8 ~dt:1e-9 ~stimulus circuit)))
    cases

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
            prop_mos_make;
            prop_bjt_make;
            prop_dc_solve;
            prop_tran_simulate;
          ]
        @ [
            Alcotest.test_case "kernels: Roots.find diverges like the reference" `Quick
              test_roots_diverged;
            Alcotest.test_case "kernels: Dc.solve and Tran.simulate keep the first element error"
              `Quick test_dc_errors;
          ] );
    ]
