type factored = { lu : La.Lu.t; c_sparse : La.Sparse.t }

let factor lin =
  let g = La.Mat.copy lin.Mna.Linearize.g in
  let n = La.Mat.rows g in
  for k = 0 to n - 1 do
    La.Mat.add_to g k k 1e-12
  done;
  (* The susceptance matrix is a few entries per device: the moment loop
     multiplies by it once per moment, so keep it in CSR. The regularized
     copy is ours, so it is factored in place. *)
  { lu = La.Lu.factor_in_place g; c_sparse = La.Sparse.of_dense lin.Mna.Linearize.c }

(* r_0 = G^-1 b, r_(k+1) = -G^-1 C r_k, m_k = sel . r_k. *)
let compute_with f ~b ~sel ~count =
  let moments = Array.make count 0.0 in
  let r = Array.copy b in
  La.Lu.solve_in_place f.lu r;
  moments.(0) <- La.Vec.dot sel r;
  let cur = ref r in
  let tmp = La.Vec.create (Array.length r) in
  for k = 1 to count - 1 do
    (* r_(k+1) = -G^-1 C r_k *)
    La.Sparse.mul_vec_into f.c_sparse !cur tmp;
    La.Lu.solve_in_place f.lu tmp;
    for i = 0 to Array.length tmp - 1 do
      tmp.(i) <- -.tmp.(i)
    done;
    moments.(k) <- La.Vec.dot sel tmp;
    Array.blit tmp 0 !cur 0 (Array.length tmp)
  done;
  moments

let compute lin ~b ~sel ~count = compute_with (factor lin) ~b ~sel ~count

