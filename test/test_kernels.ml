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

let ref_norm_inf a =
  let best = ref 0.0 in
  for i = 0 to La.Mat.rows a - 1 do
    let s = ref 0.0 in
    for j = 0 to La.Mat.cols a - 1 do
      s := !s +. Float.abs (La.Mat.get a i j)
    done;
    if !s > !best then best := !s
  done;
  !best

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

(* --- Reference SMW update (element by element, over the reference LU) --- *)

type ref_v = Rdense of La.Mat.t | Rcols of int array

type ref_lr = {
  base : ref_lu;
  ainv_u : La.Mat.t;
  ainvT_v : La.Mat.t;
  v : ref_v;
  cap : ref_lu;
  rank : int;
}

let ref_make ~rcond_min ~growth_max base ~u ~v =
  let n = La.Mat.rows base.rlu in
  let r = La.Mat.cols u in
  let col = La.Vec.create n in
  let solve_cols dst transposed src_col growth =
    let ok = ref true in
    for j = 0 to r - 1 do
      if !ok then begin
        src_col j col;
        if transposed then ref_solve_transposed_in_place base col
        else ref_solve_in_place base col;
        for i = 0 to n - 1 do
          let x = col.(i) in
          if not (Float.is_finite x) then ok := false
          else begin
            let a = Float.abs x in
            if a > !growth then growth := a
          end;
          La.Mat.set dst i j x
        done
      end
    done;
    !ok
  in
  let growth = ref 0.0 in
  let ainv_u = La.Mat.create n r in
  let u_col j dst =
    for i = 0 to n - 1 do
      dst.(i) <- La.Mat.get u i j
    done
  in
  let v_col j dst =
    match v with
    | Rdense vm ->
        for i = 0 to n - 1 do
          dst.(i) <- La.Mat.get vm i j
        done
    | Rcols cols ->
        La.Vec.fill dst 0.0;
        dst.(cols.(j)) <- 1.0
  in
  if not (solve_cols ainv_u false u_col growth) then
    Error "lowrank: non-finite solve against base factorization"
  else begin
    let ainvT_v = La.Mat.create n r in
    if not (solve_cols ainvT_v true v_col growth) then
      Error "lowrank: non-finite transposed solve against base factorization"
    else if !growth > growth_max then Error "lowrank: update growth exceeds bound"
    else begin
      let cap = La.Mat.create r r in
      for i = 0 to r - 1 do
        for j = 0 to r - 1 do
          let s =
            match v with
            | Rcols cols -> La.Mat.get ainv_u cols.(i) j
            | Rdense vm ->
                let acc = ref 0.0 in
                for k = 0 to n - 1 do
                  acc := !acc +. (La.Mat.get vm k i *. La.Mat.get ainv_u k j)
                done;
                !acc
          in
          La.Mat.set cap i j (if i = j then 1.0 +. s else s)
        done
      done;
      match ref_factor cap with
      | exception Ref_singular _ -> Error "lowrank: singular capacitance matrix"
      | cap_lu ->
          let probe = Array.init r (fun i -> if i land 1 = 0 then 1.0 else -1.0) in
          ref_solve_in_place cap_lu probe;
          let ninv = La.Vec.norm_inf probe in
          let scale = Float.max 1.0 (ref_norm_inf cap) in
          let rcond =
            if ninv = 0.0 || not (Float.is_finite ninv) then 0.0 else 1.0 /. (scale *. ninv)
          in
          if r > 0 && rcond < rcond_min then Error "lowrank: ill-conditioned capacitance matrix"
          else Ok { base; ainv_u; ainvT_v; v; cap = cap_lu; rank = r }
    end
  end

(* The reference takes the update the old way: a dense n x n delta whose
   columns [cols] are copied into U. *)
let ref_update_cols base ~cols ~delta =
  let n = La.Mat.rows base.rlu in
  let r = Array.length cols in
  let u = La.Mat.create n r in
  for j = 0 to r - 1 do
    for i = 0 to n - 1 do
      La.Mat.set u i j (La.Mat.get delta i cols.(j))
    done
  done;
  ref_make ~rcond_min:1e-10 ~growth_max:1e12 base ~u ~v:(Rcols cols)

let ref_lr_solve t b =
  let n = Array.length b in
  ref_solve_in_place t.base b;
  let r = t.rank in
  if r > 0 then begin
    let w = La.Vec.create r in
    (match t.v with
    | Rcols cols ->
        for j = 0 to r - 1 do
          w.(j) <- b.(cols.(j))
        done
    | Rdense vm ->
        for j = 0 to r - 1 do
          let acc = ref 0.0 in
          for i = 0 to n - 1 do
            acc := !acc +. (La.Mat.get vm i j *. b.(i))
          done;
          w.(j) <- !acc
        done);
    ref_solve_in_place t.cap w;
    for i = 0 to n - 1 do
      let acc = ref 0.0 in
      for j = 0 to r - 1 do
        acc := !acc +. (La.Mat.get t.ainv_u i j *. w.(j))
      done;
      b.(i) <- b.(i) -. !acc
    done
  end

let ref_lr_solve_transposed t b =
  let n = Array.length b in
  let r = t.rank in
  if r = 0 then ref_solve_transposed_in_place t.base b
  else begin
    let w = La.Vec.create r in
    for j = 0 to r - 1 do
      let acc = ref 0.0 in
      for i = 0 to n - 1 do
        acc := !acc +. (La.Mat.get t.ainv_u i j *. b.(i))
      done;
      w.(j) <- !acc
    done;
    ref_solve_transposed_in_place t.base b;
    ref_solve_transposed_in_place t.cap w;
    for i = 0 to n - 1 do
      let acc = ref 0.0 in
      for j = 0 to r - 1 do
        acc := !acc +. (La.Mat.get t.ainvT_v i j *. w.(j))
      done;
      b.(i) <- b.(i) -. !acc
    done
  end

(* Both outcomes agree: the same refusal, or solves with the same bits. *)
let lowrank_agrees rng n lr rlr =
  match (lr, rlr) with
  | Error e, Error er -> String.equal e er
  | Ok lr, Ok rl ->
      La.Lowrank.rank lr = rl.rank
      &&
      let b = rhs rng n in
      let x = La.Lowrank.solve lr b and xr = Array.copy b in
      ref_lr_solve rl xr;
      let y = La.Lowrank.solve_transposed lr b and yr = Array.copy b in
      ref_lr_solve_transposed rl yr;
      vec_same x xr && vec_same y yr
  | _ -> false

(* A stamp-shaped delta touching up to r columns, and those columns. *)
let stamp_delta rng n r =
  let d = La.Mat.create n n in
  let cols = ref [] in
  for _ = 1 to r do
    let i = Random.State.int rng n and j = Random.State.int rng n in
    let c = entry rng in
    La.Mat.add_to d i i c;
    cols := i :: !cols;
    if i <> j then begin
      La.Mat.add_to d j j c;
      La.Mat.add_to d i j (-.c);
      La.Mat.add_to d j i (-.c);
      cols := j :: !cols
    end
  done;
  (d, Array.of_list (List.sort_uniq compare !cols))

let prop_lowrank_cols =
  QCheck.Test.make ~name:"kernels: Lowrank.update_cols solves match the reference" ~count:400
    QCheck.(triple (int_range 1 14) (int_range 0 3) (int_range 0 1_000_000))
    (fun (n, r, seed) ->
      let rng = Random.State.make [| seed; n; r |] in
      let a = matrix rng n in
      match (factor_outcome a, ref_outcome a) with
      | Ok base, Ok rbase ->
          let delta, cols = stamp_delta rng n r in
          let u =
            La.Mat.init n (Array.length cols) (fun i j -> La.Mat.get delta i cols.(j))
          in
          lowrank_agrees rng n
            (La.Lowrank.update_cols base ~cols ~u)
            (ref_update_cols rbase ~cols ~delta)
      | Error k, Error kr -> k = kr
      | _ -> false)

let prop_lowrank_dense =
  QCheck.Test.make ~name:"kernels: Lowrank.update solves match the reference" ~count:300
    QCheck.(triple (int_range 1 12) (int_range 0 3) (int_range 0 1_000_000))
    (fun (n, r, seed) ->
      let rng = Random.State.make [| seed; n; r; 3 |] in
      let a = matrix rng n in
      match (factor_outcome a, ref_outcome a) with
      | Ok base, Ok rbase ->
          let u = La.Mat.init n r (fun _ _ -> entry rng) in
          let v = La.Mat.init n r (fun _ _ -> entry rng) in
          lowrank_agrees rng n
            (La.Lowrank.update base ~u ~v)
            (ref_make ~rcond_min:1e-10 ~growth_max:1e12 rbase ~u ~v:(Rdense v))
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

(* --- Moments.compute_probe with the conductance stamps untouched ---

   A probe whose G is bitwise the retained one solves through the retained
   factorization, so, whether or not its C moved, its moments must carry
   the bits of a fresh factorization of the perturbed system: the plain
   recurrence needs no cached moment vectors to be exact there. *)

let lin_of_mats g c =
  let n = La.Mat.rows g in
  let empty = { Netlist.Circuit.node_names = Array.init (n + 1) string_of_int; elements = [||] } in
  { Mna.Linearize.idx = Mna.Sysmat.of_circuit empty; g; c; b = La.Vec.create n }

let moments_outcome lin ~b ~sel ~count =
  match Awe.Moments.factor lin with
  | fac -> Ok (fac, Awe.Moments.compute_with fac ~b ~sel ~count)
  | exception La.Lu.Singular k -> Error k

let prop_probe_untouched_g =
  QCheck.Test.make ~name:"kernels: Moments.compute_probe with G untouched matches a fresh factor"
    ~count:300
    QCheck.(triple (int_range 1 14) bool (int_range 0 1_000_000))
    (fun (n, c_moves, seed) ->
      let rng = Random.State.make [| seed; n; 17 |] in
      let g = mna_matrix rng n and c = mna_matrix rng n in
      let c' = La.Mat.copy c in
      if c_moves then begin
        (* one more capacitor, between two nodes or to ground *)
        let i = Random.State.int rng n and j = Random.State.int rng n in
        let cap = 10.0 ** QCheck.Gen.float_range (-15.0) (-9.0) rng in
        La.Mat.add_to c' i i cap;
        if i <> j then begin
          La.Mat.add_to c' j j cap;
          La.Mat.add_to c' i j (-.cap);
          La.Mat.add_to c' j i (-.cap)
        end
      end;
      let b = rhs rng n and sel = rhs rng n in
      let count = 1 + Random.State.int rng 14 in
      let lin = lin_of_mats g c and lin' = lin_of_mats (La.Mat.copy g) c' in
      match (moments_outcome lin ~b ~sel ~count, moments_outcome lin' ~b ~sel ~count) with
      | Ok (fac, _), Ok (_, fresh) -> begin
          match
            Awe.Moments.prepare_update fac ~g_old:g ~g_new:lin'.Mna.Linearize.g ~c_old:c
              ~c_new:c'
          with
          | Ok u ->
              Awe.Moments.update_rank u = 0
              && vec_same (Awe.Moments.compute_probe u ~b ~sel ~count) fresh
          | Error _ -> false
        end
      | Error k, Error k' -> k = k'
      | _ -> false)

let () =
  Alcotest.run "kernels"
    [
      ( "bits",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_lu_factor;
            prop_lu_solves;
            prop_lowrank_cols;
            prop_lowrank_dense;
            prop_sparse_of_dense;
            prop_zmat_solve;
            prop_probe_untouched_g;
          ] );
    ]
