(* Split storage: the real and imaginary parts of entry (i, j) live at
   [(i * n) + j] of two float planes, so the solve runs on unboxed floats
   instead of one boxed [Cpx.t] record per entry. *)
type t = { m : int; n : int; re : float array; im : float array }

let create m n = { m; n; re = Array.make (m * n) 0.0; im = Array.make (m * n) 0.0 }
let set t i j (v : Cpx.t) =
  let k = (i * t.n) + j in
  t.re.(k) <- v.Cpx.re;
  t.im.(k) <- v.Cpx.im

let set_real_pair t (g : Mat.t) (c : Mat.t) w =
  if g.Mat.m <> c.Mat.m || g.Mat.n <> c.Mat.n then
    invalid_arg "Zmat.set_real_pair: shape mismatch";
  if g.Mat.m <> t.m || g.Mat.n <> t.n then invalid_arg "Zmat.set_real_pair: size mismatch";
  Array.blit g.Mat.a 0 t.re 0 (Array.length t.re);
  Array.iteri (fun k x -> Array.unsafe_set t.im k (w *. x)) c.Mat.a

let of_real_pair (g : Mat.t) (c : Mat.t) w =
  if g.Mat.m <> c.Mat.m || g.Mat.n <> c.Mat.n then
    invalid_arg "Zmat.of_real_pair: shape mismatch";
  let t = create g.Mat.m g.Mat.n in
  set_real_pair t g c w;
  t

exception Singular of int

(* LU with partial pivoting on the two planes. Every complex operation is
   the stdlib [Complex] formula written out on its parts, in the same
   order ([norm] is [Float.hypot]; [div] picks its branch on the
   divisor's larger part), so the solution has the bits of the
   element-wise [Cpx] formulation (test_kernels pins this). *)
let solve_in_place t xr xi =
  let n = t.m in
  if n <> t.n then invalid_arg "Zmat.solve: not square";
  if Array.length xr <> n || Array.length xi <> n then invalid_arg "Zmat.solve: dim mismatch";
  let ar = t.re and ai = t.im in
  let swap (v : float array) k p =
    let tmp = Array.unsafe_get v k in
    Array.unsafe_set v k (Array.unsafe_get v p);
    Array.unsafe_set v p tmp
  in
  for k = 0 to n - 1 do
    let rk = k * n in
    let p = ref k in
    let best = ref (Float.hypot (Array.unsafe_get ar (rk + k)) (Array.unsafe_get ai (rk + k))) in
    for i = k + 1 to n - 1 do
      let ik = (i * n) + k in
      let v = Float.hypot (Array.unsafe_get ar ik) (Array.unsafe_get ai ik) in
      if v > !best then begin
        p := i;
        best := v
      end
    done;
    if !p <> k then begin
      let rp = !p * n in
      for j = 0 to n - 1 do
        swap ar (rk + j) (rp + j);
        swap ai (rk + j) (rp + j)
      done;
      swap xr k !p;
      swap xi k !p
    end;
    let yr = Array.unsafe_get ar (rk + k) and yi = Array.unsafe_get ai (rk + k) in
    if Float.hypot yr yi < 1e-300 || not (Float.is_finite yr && Float.is_finite yi) then
      raise (Singular k);
    (* Complex.div's ratio and denominator depend on the divisor alone,
       which is this column's pivot for every row below. *)
    let big = Float.abs yr >= Float.abs yi in
    let r = if big then yi /. yr else yr /. yi in
    let d = if big then yr +. (r *. yi) else yi +. (r *. yr) in
    for i = k + 1 to n - 1 do
      let ri = i * n in
      let xre = Array.unsafe_get ar (ri + k) and xim = Array.unsafe_get ai (ri + k) in
      let fr = if big then (xre +. (r *. xim)) /. d else ((r *. xre) +. xim) /. d in
      let fi = if big then (xim -. (r *. xre)) /. d else ((r *. xim) -. xre) /. d in
      if Float.hypot fr fi <> 0.0 then begin
        for j = k + 1 to n - 1 do
          let akr = Array.unsafe_get ar (rk + j) and aki = Array.unsafe_get ai (rk + j) in
          Array.unsafe_set ar (ri + j)
            (Array.unsafe_get ar (ri + j) -. ((fr *. akr) -. (fi *. aki)));
          Array.unsafe_set ai (ri + j)
            (Array.unsafe_get ai (ri + j) -. ((fr *. aki) +. (fi *. akr)))
        done;
        let xkr = Array.unsafe_get xr k and xki = Array.unsafe_get xi k in
        Array.unsafe_set xr i (Array.unsafe_get xr i -. ((fr *. xkr) -. (fi *. xki)));
        Array.unsafe_set xi i (Array.unsafe_get xi i -. ((fr *. xki) +. (fi *. xkr)))
      end
    done
  done;
  for i = n - 1 downto 0 do
    let ri = i * n in
    let sr = ref (Array.unsafe_get xr i) and si = ref (Array.unsafe_get xi i) in
    for j = i + 1 to n - 1 do
      let yr = Array.unsafe_get ar (ri + j) and yi = Array.unsafe_get ai (ri + j) in
      let vr = Array.unsafe_get xr j and vi = Array.unsafe_get xi j in
      sr := !sr -. ((yr *. vr) -. (yi *. vi));
      si := !si -. ((yr *. vi) +. (yi *. vr))
    done;
    let yr = Array.unsafe_get ar (ri + i) and yi = Array.unsafe_get ai (ri + i) in
    let xre = !sr and xim = !si in
    if Float.abs yr >= Float.abs yi then begin
      let r = yi /. yr in
      let d = yr +. (r *. yi) in
      Array.unsafe_set xr i ((xre +. (r *. xim)) /. d);
      Array.unsafe_set xi i ((xim -. (r *. xre)) /. d)
    end
    else begin
      let r = yr /. yi in
      let d = yi +. (r *. yr) in
      Array.unsafe_set xr i (((r *. xre) +. xim) /. d);
      Array.unsafe_set xi i (((r *. xim) -. xre) /. d)
    end
  done

let solve t b =
  let xr = Array.map (fun (z : Cpx.t) -> z.Cpx.re) b in
  let xi = Array.map (fun (z : Cpx.t) -> z.Cpx.im) b in
  solve_in_place t xr xi;
  Array.init (Array.length b) (fun i -> { Cpx.re = xr.(i); im = xi.(i) })
