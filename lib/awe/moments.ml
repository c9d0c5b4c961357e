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
   bit-identical: r_0 = G^-1 b, r_(k+1) = -G^-1 C r_k, m_k = sel . r_k.
   [record] observes each r_k right after it is produced. *)
let compute_gen ?record ~solve_in_place ~c ~b ~sel ~count () =
  let moments = Array.make count 0.0 in
  let r = Array.copy b in
  solve_in_place r;
  moments.(0) <- La.Vec.dot sel r;
  (match record with Some f -> f 0 r | None -> ());
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
    (match record with Some f -> f k tmp | None -> ());
    Array.blit tmp 0 !cur 0 (Array.length tmp)
  done;
  moments

let compute_with f ~b ~sel ~count =
  compute_gen ~solve_in_place:(La.Lu.solve_in_place f.lu) ~c:f.c_sparse ~b ~sel ~count ()

let compute lin ~b ~sel ~count = compute_with (factor lin) ~b ~sel ~count

(* --- moment-vector cache: recorded on the exact path, served on probes --- *)

type cache = {
  mutable cache_b : La.Vec.t; (* excitation at record time, compared bitwise *)
  mutable vecs : La.Vec.t array; (* r_0 .. r_(valid-1) *)
  mutable valid : int;
}

let cache_create () = { cache_b = [||]; vecs = [||]; valid = 0 }
let cache_clear c = c.valid <- 0

let compute_record f cache ~b ~sel ~count =
  if Array.length cache.vecs < count then begin
    cache.vecs <- Array.init count (fun _ -> [||]);
    cache.valid <- 0
  end;
  let record k (r : La.Vec.t) =
    let dst =
      if Array.length cache.vecs.(k) = Array.length r then cache.vecs.(k)
      else begin
        let d = La.Vec.create (Array.length r) in
        cache.vecs.(k) <- d;
        d
      end
    in
    Array.blit r 0 dst 0 (Array.length r)
  in
  let m =
    compute_gen ~record ~solve_in_place:(La.Lu.solve_in_place f.lu) ~c:f.c_sparse ~b ~sel
      ~count ()
  in
  if Array.length cache.cache_b <> Array.length b then cache.cache_b <- Array.copy b
  else Array.blit b 0 cache.cache_b 0 (Array.length b);
  cache.valid <- count;
  m

(* --- low-rank probe updates --- *)

type solver = Base of La.Lu.t | Low of La.Lowrank.t
type update = { u_solver : solver; u_c : La.Sparse.t; u_c_changed : bool; u_rank : int }

let bits_eq (x : float) (y : float) = Int64.bits_of_float x = Int64.bits_of_float y

let mat_bits_eq (a : La.Mat.t) (b : La.Mat.t) =
  a.La.Mat.m = b.La.Mat.m && a.La.Mat.n = b.La.Mat.n
  &&
  let aa = a.La.Mat.a and ba = b.La.Mat.a in
  let rec go k = k < 0 || (bits_eq (Array.unsafe_get aa k) (Array.unsafe_get ba k) && go (k - 1)) in
  go (Array.length aa - 1)

let vec_bits_eq a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  (try
     Array.iteri
       (fun i x ->
         if not (bits_eq x b.(i)) then begin
           ok := false;
           raise Exit
         end)
       a
   with Exit -> ());
  !ok

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
    let c_changed = not (mat_bits_eq c_old c_new) in
    let c_sparse = if c_changed then La.Sparse.of_dense c_new else fac.c_sparse in
    let r = Array.length cols in
    if r = 0 then
      Ok { u_solver = Base fac.lu; u_c = c_sparse; u_c_changed = c_changed; u_rank = 0 }
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
      | Ok lr ->
          Ok
            {
              u_solver = Low lr;
              u_c = c_sparse;
              u_c_changed = c_changed;
              u_rank = La.Lowrank.rank lr;
            }
    end
  end

let update_rank u = u.u_rank

let compute_probe u cache ~b ~sel ~count =
  let solve_in_place =
    match u.u_solver with
    | Base lu -> La.Lu.solve_in_place lu
    | Low lr -> La.Lowrank.solve_in_place lr
  in
  let b_cached = cache.valid > 0 && vec_bits_eq b cache.cache_b in
  if u.u_rank = 0 && (not u.u_c_changed) && b_cached && cache.valid >= count then begin
    (* G and C untouched, same excitation: every recorded vector serves. *)
    let moments = Array.make count 0.0 in
    for k = 0 to count - 1 do
      moments.(k) <- La.Vec.dot sel cache.vecs.(k)
    done;
    (moments, `Reused)
  end
  else if u.u_rank = 0 && b_cached then begin
    (* G untouched but C moved (a capacitance-only move): r_0 = G^-1 b still
       holds, so only the k >= 1 tail re-solves against the retained LU. *)
    let moments = Array.make count 0.0 in
    let n = Array.length b in
    let cur = La.Vec.create n in
    Array.blit cache.vecs.(0) 0 cur 0 n;
    moments.(0) <- La.Vec.dot sel cur;
    let tmp = La.Vec.create n in
    for k = 1 to count - 1 do
      La.Sparse.mul_vec_into u.u_c cur tmp;
      solve_in_place tmp;
      for i = 0 to n - 1 do
        tmp.(i) <- -.tmp.(i)
      done;
      moments.(k) <- La.Vec.dot sel tmp;
      Array.blit tmp 0 cur 0 n
    done;
    (moments, `Refreshed)
  end
  else
    (* G changed (SMW solves throughout) or the excitation moved: full
       recurrence against the updated solver. Never writes the cache. *)
    (compute_gen ~solve_in_place ~c:u.u_c ~b ~sel ~count (), `Updated)
