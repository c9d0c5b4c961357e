(* Differential numerics harness for La.Lowrank: every updated solve is
   checked against a fresh La.Lu.factor of the explicitly perturbed matrix.
   The matrices are MNA-shaped — diagonally dominant conductance stamps whose
   scales span 1e-12 .. 1e3 siemens, the range a transistor-level netlist
   actually produces — plus near-singular and permutation-heavy pivot cases.
   This suite gates the incremental AWE path: if it fails, screening solves
   are drifting from the exact factorization they claim to approximate. *)

let rel_err x y =
  let n = Array.length x in
  let num = ref 0.0 and den = ref 0.0 in
  for i = 0 to n - 1 do
    num := Float.max !num (Float.abs (x.(i) -. y.(i)));
    den := Float.max !den (Float.abs y.(i))
  done;
  !num /. (1.0 +. !den)

(* An MNA-shaped conductance matrix: symmetric stamp pattern
   G[i,i] += g, G[j,j] += g, G[i,j] -= g, G[j,i] -= g per "element",
   with conductances drawn log-uniformly from 1e-12 .. 1e3. *)
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
  let conductance () =
    let e = QCheck.Gen.float_range (-12.0) 3.0 rng in
    10.0 ** e
  in
  (* A chain keeps it connected; extra random pairs add fill. *)
  for i = 0 to n - 2 do
    stamp i (i + 1) (conductance ())
  done;
  stamp 0 (-1) (conductance ());
  let extras = 1 + Random.State.int rng (2 * n) in
  for _ = 1 to extras do
    let i = Random.State.int rng n and j = Random.State.int rng n in
    if i <> j then stamp i j (conductance ())
    else stamp i (-1) (conductance ())
  done;
  g

(* A rank-r element-stamp style delta: r random stamps collected densely. *)
let stamp_delta rng n r =
  let d = La.Mat.create n n in
  let cols = ref [] in
  for _ = 1 to r do
    let i = Random.State.int rng n in
    let j = Random.State.int rng n in
    let e = QCheck.Gen.float_range (-6.0) 2.0 rng in
    let c = 10.0 ** e in
    if i <> j then begin
      La.Mat.add_to d i i c;
      La.Mat.add_to d j j c;
      La.Mat.add_to d i j (-.c);
      La.Mat.add_to d j i (-.c);
      cols := i :: j :: !cols
    end
    else begin
      La.Mat.add_to d i i c;
      cols := i :: !cols
    end
  done;
  let cols = List.sort_uniq compare !cols in
  (d, Array.of_list cols)

(* The n x r block [update_cols] takes: columns [cols] of [delta]. *)
let cols_of delta cols =
  La.Mat.init (La.Mat.rows delta) (Array.length cols) (fun i j -> La.Mat.get delta i cols.(j))

let fresh_solve a b =
  La.Lu.solve (La.Lu.factor a) b

let random_rhs rng n = Array.init n (fun _ -> QCheck.Gen.float_range (-5.0) 5.0 rng)

(* The SMW forward error is governed by the conditioning of *both* the base
   (the solves route through it) and the target, so the differential
   tolerance scales with the worse of the two. The probe-based
   [rcond_estimate] only *overestimates* rcond (the probe lower-bounds
   ||A^{-1}|| and can miss the bad direction entirely on these 15-decade
   conductance spans), so the estimate is sharpened with the amplification
   the reference solve actually exhibited: ||y||/||b|| also lower-bounds
   ||A'^{-1}||. The floor stays a loose 1e-6 — catastrophic SMW errors (a
   wrong formula, a lost permutation) are O(1), which this still catches —
   while the well-scaled property below holds a tight 1e-8 bound. Systems
   measuring below rcond 1e-13 are hopeless for any solver and skipped. *)
let cond_tolerance base a a' ~b ~y =
  let rc_a = La.Lu.rcond_estimate base a in
  let rc_a' =
    try
      let lu' = La.Lu.factor a' in
      La.Lu.rcond_estimate lu' a'
    with La.Lu.Singular _ -> 0.0
  in
  let nb = Float.max (La.Vec.norm_inf b) 1e-30 in
  let amp = La.Vec.norm_inf y /. nb in
  let rc_emp = 1.0 /. Float.max 1e-300 (La.Mat.norm_inf a' *. amp) in
  (* The same sharpening for the base: the SMW route solves A, not A', so
     its amplification of this rhs bounds the achievable accuracy too. *)
  let amp_base = La.Vec.norm_inf (La.Lu.solve base b) /. nb in
  let rc_emp_base = 1.0 /. Float.max 1e-300 (La.Mat.norm_inf a *. amp_base) in
  let min_rc = Float.min (Float.min rc_a rc_emp_base) (Float.min rc_a' rc_emp) in
  if min_rc < 1e-13 then None
  else Some (Float.max 1e-6 (1e-12 /. min_rc))

(* --- rank-1..3 update_cols vs fresh factorization --- *)

let prop_update_cols_matches_fresh =
  QCheck.Test.make ~name:"lowrank: update_cols solve matches fresh factor" ~count:200
    QCheck.(triple (int_range 2 14) (int_range 1 3) (int_range 0 100000))
    (fun (n, r, seed) ->
      let rng = Random.State.make [| seed; n; r |] in
      let a = mna_matrix rng n in
      let base = La.Lu.factor a in
      let delta, cols = stamp_delta rng n r in
      let a' = La.Mat.add a delta in
      let b = random_rhs rng n in
      match La.Lowrank.update_cols base ~cols ~u:(cols_of delta cols) with
      | Error _ ->
          (* The guard refused: the caller falls back to a fresh
             factorization, which is always safe. Acceptance coverage is
             enforced by the well-scaled property below. *)
          true
      | Ok lr ->
          if La.Lowrank.rank lr <> Array.length cols then false
          else begin
            match fresh_solve a' b with
            | exception La.Lu.Singular _ -> true
            | y -> (
                match cond_tolerance base a a' ~b ~y with
                | None -> true
                | Some tol -> rel_err (La.Lowrank.solve lr b) y < tol)
          end)

(* --- well-scaled systems: the guard must ACCEPT and the solve be tight --- *)

let prop_wellscaled_accepts =
  QCheck.Test.make ~name:"lowrank: well-scaled updates accepted and tight" ~count:200
    QCheck.(triple (int_range 2 14) (int_range 1 3) (int_range 0 100000))
    (fun (n, r, seed) ->
      let rng = Random.State.make [| seed + 13; n; r |] in
      (* Conductances confined to 1e-2 .. 1e2: condition stays moderate, so
         a refusal here would mean the guard is uselessly conservative. *)
      let g = La.Mat.create n n in
      let stamp i j c =
        La.Mat.add_to g i i c;
        if j >= 0 then begin
          La.Mat.add_to g j j c;
          La.Mat.add_to g i j (-.c);
          La.Mat.add_to g j i (-.c)
        end
      in
      let conductance () = 10.0 ** QCheck.Gen.float_range (-2.0) 2.0 rng in
      for i = 0 to n - 2 do
        stamp i (i + 1) (conductance ())
      done;
      for i = 0 to n - 1 do
        stamp i (-1) (conductance ())
      done;
      let base = La.Lu.factor g in
      let delta = La.Mat.create n n in
      let cols = ref [] in
      for _ = 1 to r do
        let i = Random.State.int rng n in
        La.Mat.add_to delta i i (10.0 ** QCheck.Gen.float_range (-2.0) 1.0 rng);
        cols := i :: !cols
      done;
      let cols = Array.of_list (List.sort_uniq compare !cols) in
      let a' = La.Mat.add g delta in
      let b = random_rhs rng n in
      match La.Lowrank.update_cols base ~cols ~u:(cols_of delta cols) with
      | Error e -> QCheck.Test.fail_reportf "guard refused a benign update: %s" e
      | Ok lr ->
          let x = La.Lowrank.solve lr b in
          let y = fresh_solve a' b in
          rel_err x y < 1e-8)

(* --- general dense-UV update vs fresh factorization --- *)

let prop_update_dense_matches_fresh =
  QCheck.Test.make ~name:"lowrank: dense U,V update matches fresh factor" ~count:150
    QCheck.(triple (int_range 2 12) (int_range 1 3) (int_range 0 100000))
    (fun (n, r, seed) ->
      let rng = Random.State.make [| seed + 31; n; r |] in
      let a = mna_matrix rng n in
      let base = La.Lu.factor a in
      let u = La.Mat.init n r (fun _ _ -> QCheck.Gen.float_range (-2.0) 2.0 rng) in
      let v = La.Mat.init n r (fun _ _ -> QCheck.Gen.float_range (-2.0) 2.0 rng) in
      (* A' = A + U V^T, built explicitly for the reference factorization. *)
      let a' = La.Mat.copy a in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let acc = ref 0.0 in
          for k = 0 to r - 1 do
            acc := !acc +. (La.Mat.get u i k *. La.Mat.get v j k)
          done;
          La.Mat.add_to a' i j !acc
        done
      done;
      let b = random_rhs rng n in
      match La.Lowrank.update base ~u ~v with
      | Error _ -> true
      | Ok lr -> (
          match fresh_solve a' b with
          | exception La.Lu.Singular _ -> true
          | y -> (
              match cond_tolerance base a a' ~b ~y with
              | None -> true
              | Some tol -> rel_err (La.Lowrank.solve lr b) y < tol)))

(* --- solve_transposed consistency --- *)

let prop_transposed_consistent =
  QCheck.Test.make ~name:"lowrank: solve_transposed solves (A+UV^T)^T" ~count:150
    QCheck.(triple (int_range 2 12) (int_range 1 3) (int_range 0 100000))
    (fun (n, r, seed) ->
      let rng = Random.State.make [| seed + 91; n; r |] in
      let a = mna_matrix rng n in
      let base = La.Lu.factor a in
      let delta, cols = stamp_delta rng n r in
      let a' = La.Mat.add a delta in
      let b = random_rhs rng n in
      match La.Lowrank.update_cols base ~cols ~u:(cols_of delta cols) with
      | Error _ -> true
      | Ok lr -> (
          match La.Lu.solve_transposed (La.Lu.factor a') b with
          | exception La.Lu.Singular _ -> true
          | y -> (
              match cond_tolerance base a a' ~b ~y with
              | None -> true
              | Some tol -> rel_err (La.Lowrank.solve_transposed lr b) y < tol)))

(* --- permuted-pivot cases: force pivoting in the base factorization --- *)

let prop_permuted_pivots =
  QCheck.Test.make ~name:"lowrank: survives pivot-permuted base" ~count:100
    QCheck.(pair (int_range 3 10) (int_range 0 100000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed + 17; n |] in
      let a = mna_matrix rng n in
      (* Scramble the row magnitudes so partial pivoting must permute:
         scale row i by 10^(±k). Keeps nonsingularity, destroys diagonal
         dominance of the raw ordering. *)
      for i = 0 to n - 1 do
        let s = 10.0 ** float_of_int (Random.State.int rng 7 - 3) in
        for j = 0 to n - 1 do
          La.Mat.set a i j (La.Mat.get a i j *. s)
        done
      done;
      match La.Lu.factor a with
      | exception La.Lu.Singular _ -> true
      | base ->
          let delta, cols = stamp_delta rng n 2 in
          let a' = La.Mat.add a delta in
          let b = random_rhs rng n in
          (match La.Lowrank.update_cols base ~cols ~u:(cols_of delta cols) with
          | Error _ -> true
          | Ok lr -> (
              match fresh_solve a' b with
              | exception La.Lu.Singular _ -> true
              | y -> (
                  match cond_tolerance base a a' ~b ~y with
                  | None -> true
                  | Some tol -> rel_err (La.Lowrank.solve lr b) y < tol))))

(* --- fallback trigger on ill-conditioned updates --- *)

let test_fallback_singularizing_update () =
  (* A rank-1 update that makes the matrix exactly singular:
     A = I (2x2), delta = diag(-1, 0) applied to column 0 makes
     A' = diag(0, 1). The capacitance matrix 1 + v^T A^{-1} u = 0. *)
  let a = La.Mat.identity 2 in
  let base = La.Lu.factor a in
  let delta = La.Mat.create 2 2 in
  La.Mat.set delta 0 0 (-1.0);
  (match La.Lowrank.update_cols base ~cols:[| 0 |] ~u:(cols_of delta [| 0 |]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected the guard to refuse a singularizing update");
  (* Nearly singularizing: delta = diag(-1 + 1e-14) leaves cap ~ 1e-14,
     far below the default rcond_min of 1e-10. *)
  let delta2 = La.Mat.create 2 2 in
  La.Mat.set delta2 0 0 (-1.0 +. 1e-14);
  match La.Lowrank.update_cols base ~cols:[| 0 |] ~u:(cols_of delta2 [| 0 |]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected the rcond guard to refuse an ill-conditioned update"

let test_fallback_growth () =
  (* A comfortably conditioned base whose inverse amplifies the update
     columns past growth_max when the bound is set tight. *)
  let a = La.Mat.of_arrays [| [| 1e-6; 0.0 |]; [| 0.0; 1.0 |] |] in
  let base = La.Lu.factor a in
  let delta = La.Mat.create 2 2 in
  La.Mat.set delta 0 0 1.0;
  (* A^{-1} column 0 scale is 1e6: refused at growth_max 1e3, fine at 1e12. *)
  (match La.Lowrank.update_cols ~growth_max:1e3 base ~cols:[| 0 |] ~u:(cols_of delta [| 0 |]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected the growth guard to trip");
  match La.Lowrank.update_cols base ~cols:[| 0 |] ~u:(cols_of delta [| 0 |]) with
  | Error e -> Alcotest.failf "default growth bound should accept: %s" e
  | Ok lr ->
      let x = La.Lowrank.solve lr [| 1.0; 1.0 |] in
      let y = fresh_solve (La.Mat.add a delta) [| 1.0; 1.0 |] in
      if rel_err x y > 1e-9 then Alcotest.fail "growth-accepted solve disagrees"

let test_rank0_update_is_base () =
  (* An empty column set degenerates to the retained factorization. *)
  let rng = Random.State.make [| 4242 |] in
  let a = mna_matrix rng 6 in
  let base = La.Lu.factor a in
  let delta = La.Mat.create 6 6 in
  match La.Lowrank.update_cols base ~cols:[||] ~u:(cols_of delta [||]) with
  | Error e -> Alcotest.failf "rank-0 update refused: %s" e
  | Ok lr ->
      Alcotest.(check int) "rank" 0 (La.Lowrank.rank lr);
      let b = random_rhs rng 6 in
      let x = La.Lowrank.solve lr b in
      let y = La.Lu.solve base b in
      Array.iteri
        (fun i xi ->
          if Int64.bits_of_float xi <> Int64.bits_of_float y.(i) then
            Alcotest.failf "rank-0 solve not bit-identical at %d" i)
        x

let test_in_place_matches_pure () =
  let rng = Random.State.make [| 777 |] in
  let a = mna_matrix rng 8 in
  let base = La.Lu.factor a in
  let delta, cols = stamp_delta rng 8 2 in
  match La.Lowrank.update_cols base ~cols ~u:(cols_of delta cols) with
  | Error e -> Alcotest.failf "update refused: %s" e
  | Ok lr ->
      let b = random_rhs rng 8 in
      let x = La.Lowrank.solve lr b in
      let bi = Array.copy b in
      La.Lowrank.solve_in_place lr bi;
      Array.iteri
        (fun i xi ->
          if Int64.bits_of_float xi <> Int64.bits_of_float bi.(i) then
            Alcotest.failf "solve_in_place differs at %d" i)
        x;
      let xt = La.Lowrank.solve_transposed lr b in
      let bt = Array.copy b in
      La.Lowrank.solve_transposed_in_place lr bt;
      Array.iteri
        (fun i xi ->
          if Int64.bits_of_float xi <> Int64.bits_of_float bt.(i) then
            Alcotest.failf "solve_transposed_in_place differs at %d" i)
        xt

let () =
  Alcotest.run "lowrank"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_update_cols_matches_fresh;
          QCheck_alcotest.to_alcotest prop_wellscaled_accepts;
          QCheck_alcotest.to_alcotest prop_update_dense_matches_fresh;
          QCheck_alcotest.to_alcotest prop_transposed_consistent;
          QCheck_alcotest.to_alcotest prop_permuted_pivots;
        ] );
      ( "guards",
        [
          Alcotest.test_case "singularizing update refused" `Quick
            test_fallback_singularizing_update;
          Alcotest.test_case "growth bound" `Quick test_fallback_growth;
        ] );
      ( "api",
        [
          Alcotest.test_case "rank-0 degenerates to base" `Quick test_rank0_update_is_base;
          Alcotest.test_case "in-place matches pure" `Quick test_in_place_matches_pure;
        ] );
    ]
