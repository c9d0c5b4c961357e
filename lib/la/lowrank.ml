(* Sherman-Morrison-Woodbury rank-k update of a retained LU factorization.

   For A factored once and a low-rank perturbation A' = A + U V^T,
     A'^{-1} b = A^{-1} b - A^{-1} U (I + V^T A^{-1} U)^{-1} V^T A^{-1} b
   so solving against A' costs two triangular solves against the retained
   factorization plus an r x r "capacitance" solve, instead of a fresh O(n^3)
   factorization. The update can be numerically treacherous when the
   capacitance matrix I + V^T A^{-1} U is ill-conditioned or the update
   directions blow up through A^{-1}; [update] detects both and returns
   [Error] so the caller can fall back to a fresh factorization. *)

type v_kind =
  | Dense of Mat.t (* n x r *)
  | Cols of int array (* V = [e_{c_0} .. e_{c_{r-1}}], unit columns *)

type t = {
  base : Lu.t;
  ainv_u : Mat.t; (* n x r: A^{-1} U, precomputed at update time *)
  ainvT_v : Mat.t; (* n x r: A^{-T} V, for transposed solves *)
  v : v_kind;
  cap_lu : Lu.t; (* factorization of I + V^T A^{-1} U *)
  rank : int;
}

let rank t = t.rank
let dim t = Lu.dim t.base

(* Shared constructor once U (dense) and V (dense or unit-column) are known.
   Guards, in order: non-finite or oversized A^{-1}U / A^{-T}V entries
   (growth through a near-singular base), a singular capacitance matrix, and
   an ill-conditioned capacitance matrix by reciprocal-condition estimate. *)
let make ~rcond_min ~growth_max base ~u ~v =
  let n = Lu.dim base in
  let r = u.Mat.n in
  if u.Mat.m <> n then invalid_arg "Lowrank: U row dim mismatch";
  (match v with
  | Dense vm ->
      if vm.Mat.m <> n || vm.Mat.n <> r then invalid_arg "Lowrank: V dim mismatch"
  | Cols cols ->
      if Array.length cols <> r then invalid_arg "Lowrank: V column count mismatch";
      Array.iter
        (fun c -> if c < 0 || c >= n then invalid_arg "Lowrank: V column index out of range")
        cols);
  (* Every n x r block below is row-major with row stride r, so entry
     (i, j) sits at [(i * r) + j]; the shapes were checked above. *)
  let col = Vec.create n in
  let solve_cols (dst : Mat.t) transposed src_col growth =
    (* dst.(.,j) <- A^{-1} (or A^{-T}) src_col j; tracks the largest entry. *)
    let d = dst.Mat.a in
    let ok = ref true in
    for j = 0 to r - 1 do
      if !ok then begin
        src_col j col;
        (try
           if transposed then Lu.solve_transposed_in_place base col
           else Lu.solve_in_place base col
         with Lu.Singular _ -> ok := false);
        if !ok then
          for i = 0 to n - 1 do
            let x = Array.unsafe_get col i in
            if not (Float.is_finite x) then ok := false
            else begin
              let a = Float.abs x in
              if a > !growth then growth := a
            end;
            Array.unsafe_set d ((i * r) + j) x
          done
      end
    done;
    !ok
  in
  let growth = ref 0.0 in
  let ainv_u = Mat.create n r in
  let u_col j dst =
    let ua = u.Mat.a in
    for i = 0 to n - 1 do
      Array.unsafe_set dst i (Array.unsafe_get ua ((i * r) + j))
    done
  in
  let v_col j dst =
    match v with
    | Dense vm ->
        let va = vm.Mat.a in
        for i = 0 to n - 1 do
          Array.unsafe_set dst i (Array.unsafe_get va ((i * r) + j))
        done
    | Cols cols ->
        Vec.fill dst 0.0;
        dst.(cols.(j)) <- 1.0
  in
  if not (solve_cols ainv_u false u_col growth) then
    Error "lowrank: non-finite solve against base factorization"
  else begin
    let ainvT_v = Mat.create n r in
    if not (solve_cols ainvT_v true v_col growth) then
      Error "lowrank: non-finite transposed solve against base factorization"
    else if !growth > growth_max then Error "lowrank: update growth exceeds bound"
    else begin
      (* cap = I + V^T A^{-1} U  (r x r). *)
      let cap = Mat.create r r in
      let ca = cap.Mat.a and aua = ainv_u.Mat.a in
      for i = 0 to r - 1 do
        for j = 0 to r - 1 do
          let s =
            match v with
            | Cols cols -> aua.((cols.(i) * r) + j)
            | Dense vm ->
                let va = vm.Mat.a in
                let acc = ref 0.0 in
                for k = 0 to n - 1 do
                  acc :=
                    !acc
                    +. (Array.unsafe_get va ((k * r) + i) *. Array.unsafe_get aua ((k * r) + j))
                done;
                !acc
          in
          ca.((i * r) + j) <- (if i = j then 1.0 +. s else s)
        done
      done;
      (* The scale is read before the in-place factorization overwrites
         the capacitance matrix with its factors. *)
      let scale = Float.max 1.0 (Mat.norm_inf cap) in
      match Lu.factor_in_place cap with
      | exception Lu.Singular _ -> Error "lowrank: singular capacitance matrix"
      | cap_lu ->
          (* Condition the capacitance matrix against its *natural* scale:
             cap = I + V^T A^{-1} U has norm >= O(1) unless the update is
             cancelling, so a plain relative estimate (which reports 1.0 for
             any 1x1 system) would miss a cap that collapsed from 1 to 1e-14.
             Estimate ||cap^{-1}|| with the alternating probe vector and
             divide max(1, ||cap||) by it. *)
          let probe = Array.init r (fun i -> if i land 1 = 0 then 1.0 else -1.0) in
          (try Lu.solve_in_place cap_lu probe
           with Lu.Singular _ -> Vec.fill probe Float.infinity);
          let ninv = Vec.norm_inf probe in
          let rcond =
            if ninv = 0.0 || not (Float.is_finite ninv) then 0.0
            else 1.0 /. (scale *. ninv)
          in
          if r > 0 && rcond < rcond_min then
            Error "lowrank: ill-conditioned capacitance matrix"
          else Ok { base; ainv_u; ainvT_v; v; cap_lu; rank = r }
    end
  end

let update ?(rcond_min = 1e-10) ?(growth_max = 1e12) base ~u ~v =
  make ~rcond_min ~growth_max base ~u ~v:(Dense v)

let update_cols ?(rcond_min = 1e-10) ?(growth_max = 1e12) base ~cols ~u =
  make ~rcond_min ~growth_max base ~u ~v:(Cols cols)

let solve_in_place t b =
  let n = dim t in
  if Array.length b <> n then invalid_arg "Lowrank.solve: dim mismatch";
  Lu.solve_in_place t.base b;
  let r = t.rank in
  if r > 0 then begin
    let w = Vec.create r in
    (match t.v with
    | Cols cols ->
        for j = 0 to r - 1 do
          w.(j) <- b.(cols.(j))
        done
    | Dense vm ->
        let va = vm.Mat.a in
        for j = 0 to r - 1 do
          let acc = ref 0.0 in
          for i = 0 to n - 1 do
            acc := !acc +. (Array.unsafe_get va ((i * r) + j) *. Array.unsafe_get b i)
          done;
          w.(j) <- !acc
        done);
    Lu.solve_in_place t.cap_lu w;
    let aua = t.ainv_u.Mat.a in
    for i = 0 to n - 1 do
      let ri = i * r in
      let acc = ref 0.0 in
      for j = 0 to r - 1 do
        acc := !acc +. (Array.unsafe_get aua (ri + j) *. Array.unsafe_get w j)
      done;
      Array.unsafe_set b i (Array.unsafe_get b i -. !acc)
    done
  end

let solve t b =
  let x = Array.copy b in
  solve_in_place t x;
  x

(* (A + U V^T)^T = A^T + V U^T, whose SMW capacitance matrix
   I + U^T A^{-T} V = (I + V^T A^{-1} U)^T is the transpose of the one we
   already factored, so the transposed solve reuses [cap_lu]. *)
let solve_transposed_in_place t b =
  let n = dim t in
  if Array.length b <> n then invalid_arg "Lowrank.solve_transposed: dim mismatch";
  let r = t.rank in
  if r = 0 then Lu.solve_transposed_in_place t.base b
  else begin
    (* U^T A^{-T} b = (A^{-1} U)^T b, so the capacitance right-hand side
       comes from the original b, before the base solve consumes it. *)
    let aua = t.ainv_u.Mat.a in
    let w = Vec.create r in
    for j = 0 to r - 1 do
      let acc = ref 0.0 in
      for i = 0 to n - 1 do
        acc := !acc +. (Array.unsafe_get aua ((i * r) + j) *. Array.unsafe_get b i)
      done;
      w.(j) <- !acc
    done;
    Lu.solve_transposed_in_place t.base b;
    Lu.solve_transposed_in_place t.cap_lu w;
    let ava = t.ainvT_v.Mat.a in
    for i = 0 to n - 1 do
      let ri = i * r in
      let acc = ref 0.0 in
      for j = 0 to r - 1 do
        acc := !acc +. (Array.unsafe_get ava (ri + j) *. Array.unsafe_get w j)
      done;
      Array.unsafe_set b i (Array.unsafe_get b i -. !acc)
    done
  end

let solve_transposed t b =
  let x = Array.copy b in
  solve_transposed_in_place t x;
  x
