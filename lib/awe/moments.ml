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

(* The one recurrence, shared by every entry point so they stay
   bit-identical: r_0 = G^-1 b, r_(k+1) = -G^-1 C r_k, m_k = sel . r_k. *)
let compute_gen ~solve_in_place ~c ~b ~sel ~count =
  let moments = Array.make count 0.0 in
  let r = Array.copy b in
  solve_in_place r;
  moments.(0) <- La.Vec.dot sel r;
  let cur = ref r in
  let tmp = La.Vec.create (Array.length r) in
  for k = 1 to count - 1 do
    (* r_(k+1) = -G^-1 C r_k *)
    La.Sparse.mul_vec_into c !cur tmp;
    solve_in_place tmp;
    for i = 0 to Array.length tmp - 1 do
      tmp.(i) <- -.tmp.(i)
    done;
    moments.(k) <- La.Vec.dot sel tmp;
    Array.blit tmp 0 !cur 0 (Array.length tmp)
  done;
  moments

let compute_with f ~b ~sel ~count =
  compute_gen ~solve_in_place:(La.Lu.solve_in_place f.lu) ~c:f.c_sparse ~b ~sel ~count

let compute lin ~b ~sel ~count = compute_with (factor lin) ~b ~sel ~count

(* --- low-rank probe updates --- *)

type solver = Base of La.Lu.t | Low of La.Lowrank.t
type update = { u_solver : solver; u_c : La.Sparse.t; u_rank : int }

let bits_eq (x : float) (y : float) = Int64.bits_of_float x = Int64.bits_of_float y

let mat_bits_eq (a : La.Mat.t) (b : La.Mat.t) =
  a.La.Mat.m = b.La.Mat.m && a.La.Mat.n = b.La.Mat.n
  &&
  let aa = a.La.Mat.a and ba = b.La.Mat.a in
  let rec go k = k < 0 || (bits_eq (Array.unsafe_get aa k) (Array.unsafe_get ba k) && go (k - 1)) in
  go (Array.length aa - 1)

let prepare_update ?rcond_min ?growth_max fac ~(g_old : La.Mat.t) ~(g_new : La.Mat.t) ~c_old
    ~c_new =
  let n = La.Mat.rows g_old in
  if La.Mat.rows g_new <> n || La.Mat.cols g_old <> n || La.Mat.cols g_new <> n then
    Error "moments: system size changed"
  else begin
    (* Column-wise bitwise diff of the conductance stamps. The 1e-12
       regularization diagonal cancels in the delta: fac.lu factors
       g_old + eI and the probe target is g_new + eI. *)
    let oa = g_old.La.Mat.a and na = g_new.La.Mat.a in
    let cols = ref [] in
    for j = n - 1 downto 0 do
      let dirty = ref false in
      for i = 0 to n - 1 do
        let k = (i * n) + j in
        if not (bits_eq (Array.unsafe_get oa k) (Array.unsafe_get na k)) then dirty := true
      done;
      if !dirty then cols := j :: !cols
    done;
    let cols = Array.of_list !cols in
    let c_sparse = if mat_bits_eq c_old c_new then fac.c_sparse else La.Sparse.of_dense c_new in
    let r = Array.length cols in
    if r = 0 then Ok { u_solver = Base fac.lu; u_c = c_sparse; u_rank = 0 }
    else begin
      (* The n x r update block: column jj is the change to column
         cols.(jj) of G. *)
      let u = La.Mat.create n r in
      let ua = u.La.Mat.a in
      for i = 0 to n - 1 do
        for jj = 0 to r - 1 do
          let k = (i * n) + cols.(jj) in
          Array.unsafe_set ua ((i * r) + jj) (Array.unsafe_get na k -. Array.unsafe_get oa k)
        done
      done;
      match La.Lowrank.update_cols ?rcond_min ?growth_max fac.lu ~cols ~u with
      | Error e -> Error e
      | Ok lr -> Ok { u_solver = Low lr; u_c = c_sparse; u_rank = La.Lowrank.rank lr }
    end
  end

let update_rank u = u.u_rank

let compute_probe u ~b ~sel ~count =
  let solve_in_place =
    match u.u_solver with
    | Base lu -> La.Lu.solve_in_place lu
    | Low lr -> La.Lowrank.solve_in_place lr
  in
  compute_gen ~solve_in_place ~c:u.u_c ~b ~sel ~count
