type t = { lu : Mat.t; piv : int array; sign : float }

exception Singular of int

(* Doolittle factorization with partial pivoting. The pivot threshold is
   relative to the largest entry of the column to tolerate badly scaled MNA
   matrices (conductances span ~1e-12 .. 1e3 siemens).

   The kernels below index the row-major storage directly: row offsets are
   hoisted out of the inner loops, and once the dimensions are checked on
   entry every index is in range, so the element accesses skip the bounds
   check. Each floating-point operation is the one the element-wise
   formulation performs, in the same order, so the factors are the same
   bits (test_kernels pins this against a reference copy). *)
let factor_in_place (lu : Mat.t) =
  let n = lu.Mat.m in
  if n <> lu.Mat.n then invalid_arg "Lu.factor: not square";
  let a = lu.Mat.a in
  let piv = Array.init n (fun k -> k) in
  let sign = ref 1.0 in
  for k = 0 to n - 1 do
    let p = ref k in
    let best = ref (Float.abs (Array.unsafe_get a ((k * n) + k))) in
    for i = k + 1 to n - 1 do
      let v = Float.abs (Array.unsafe_get a ((i * n) + k)) in
      if v > !best then begin
        p := i;
        best := v
      end
    done;
    let rk = k * n in
    if !p <> k then begin
      let rp = !p * n in
      for j = 0 to n - 1 do
        let tmp = Array.unsafe_get a (rk + j) in
        Array.unsafe_set a (rk + j) (Array.unsafe_get a (rp + j));
        Array.unsafe_set a (rp + j) tmp
      done;
      let tp = piv.(k) in
      piv.(k) <- piv.(!p);
      piv.(!p) <- tp;
      sign := -. !sign
    end;
    let pivot = Array.unsafe_get a (rk + k) in
    if Float.abs pivot < 1e-300 || not (Float.is_finite pivot) then raise (Singular k);
    for i = k + 1 to n - 1 do
      let ri = i * n in
      let f = Array.unsafe_get a (ri + k) /. pivot in
      Array.unsafe_set a (ri + k) f;
      if f <> 0.0 then begin
        let mf = -.f in
        for j = k + 1 to n - 1 do
          Array.unsafe_set a (ri + j)
            (Array.unsafe_get a (ri + j) +. (mf *. Array.unsafe_get a (rk + j)))
        done
      end
    done
  done;
  { lu; piv; sign = !sign }

let factor a = factor_in_place (Mat.copy a)
let dim t = t.lu.Mat.m

let solve_in_place t b =
  let n = dim t in
  if Array.length b <> n then invalid_arg "Lu.solve: dim mismatch";
  let a = t.lu.Mat.a in
  (* Apply the permutation, then forward- and back-substitute. *)
  let y = Array.init n (fun i -> b.(t.piv.(i))) in
  for i = 0 to n - 1 do
    let ri = i * n in
    let s = ref (Array.unsafe_get y i) in
    for j = 0 to i - 1 do
      s := !s -. (Array.unsafe_get a (ri + j) *. Array.unsafe_get y j)
    done;
    Array.unsafe_set y i !s
  done;
  for i = n - 1 downto 0 do
    let ri = i * n in
    let s = ref (Array.unsafe_get y i) in
    for j = i + 1 to n - 1 do
      s := !s -. (Array.unsafe_get a (ri + j) *. Array.unsafe_get y j)
    done;
    Array.unsafe_set y i (!s /. Array.unsafe_get a (ri + i))
  done;
  Array.blit y 0 b 0 n

let solve t b =
  let x = Array.copy b in
  solve_in_place t x;
  x

let solve_transposed_in_place t b =
  let n = dim t in
  if Array.length b <> n then invalid_arg "Lu.solve_transposed: dim mismatch";
  let a = t.lu.Mat.a in
  (* A^T = U^T L^T P, so solve U^T z = b, L^T w = z, then x = P^T w. Entry
     (j, i) of the factors is column i of row j. *)
  let z = Array.copy b in
  for i = 0 to n - 1 do
    let s = ref (Array.unsafe_get z i) in
    for j = 0 to i - 1 do
      s := !s -. (Array.unsafe_get a ((j * n) + i) *. Array.unsafe_get z j)
    done;
    Array.unsafe_set z i (!s /. Array.unsafe_get a ((i * n) + i))
  done;
  for i = n - 1 downto 0 do
    let s = ref (Array.unsafe_get z i) in
    for j = i + 1 to n - 1 do
      s := !s -. (Array.unsafe_get a ((j * n) + i) *. Array.unsafe_get z j)
    done;
    Array.unsafe_set z i !s
  done;
  for i = 0 to n - 1 do
    b.(t.piv.(i)) <- z.(i)
  done

let solve_transposed t b =
  let x = Array.copy b in
  solve_transposed_in_place t x;
  x

let det t =
  let n = dim t in
  let d = ref t.sign in
  for k = 0 to n - 1 do
    d := !d *. Mat.get t.lu k k
  done;
  !d

let rcond_estimate t a =
  let n = dim t in
  if n = 0 then 1.0
  else begin
    let e = Array.init n (fun i -> if i land 1 = 0 then 1.0 else -1.0) in
    let x = solve t e in
    let nx = Vec.norm_inf x in
    let na = Mat.norm_inf a in
    (* A vanishing solve norm or matrix norm is a singular-direction hit,
       not a well-conditioned system: report 0.0, the worst conditioning,
       so callers treat it as trouble. *)
    if nx = 0.0 || na = 0.0 then 0.0 else 1.0 /. (na *. nx)
  end
