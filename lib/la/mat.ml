type t = { m : int; n : int; a : float array }

let create m n =
  if m < 0 || n < 0 then invalid_arg "Mat.create: negative dimension";
  { m; n; a = Array.make (m * n) 0.0 }

let init m n f =
  let a = Array.make (m * n) 0.0 in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      a.((i * n) + j) <- f i j
    done
  done;
  { m; n; a }

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)
let rows t = t.m
let cols t = t.n
let get t i j = t.a.((i * t.n) + j)
let set t i j v = t.a.((i * t.n) + j) <- v
let add_to t i j v = t.a.((i * t.n) + j) <- t.a.((i * t.n) + j) +. v
let copy t = { t with a = Array.copy t.a }
let fill t v = Array.fill t.a 0 (Array.length t.a) v
let transpose t = init t.n t.m (fun i j -> get t j i)

let map2 f t1 t2 =
  if t1.m <> t2.m || t1.n <> t2.n then invalid_arg "Mat: shape mismatch";
  { t1 with a = Array.init (Array.length t1.a) (fun k -> f t1.a.(k) t2.a.(k)) }

let add = map2 ( +. )
let sub = map2 ( -. )
let scale k t = { t with a = Array.map (fun v -> k *. v) t.a }

let mul t1 t2 =
  if t1.n <> t2.m then invalid_arg "Mat.mul: inner dims mismatch";
  let r = create t1.m t2.n in
  for i = 0 to t1.m - 1 do
    for k = 0 to t1.n - 1 do
      let v = get t1 i k in
      if v <> 0.0 then
        for j = 0 to t2.n - 1 do
          add_to r i j (v *. get t2 k j)
        done
    done
  done;
  r

let mul_vec t x =
  if t.n <> Array.length x then invalid_arg "Mat.mul_vec: dim mismatch";
  let a = t.a and n = t.n in
  Array.init t.m (fun i ->
      let ri = i * n in
      let s = ref 0.0 in
      for j = 0 to n - 1 do
        s := !s +. (Array.unsafe_get a (ri + j) *. Array.unsafe_get x j)
      done;
      !s)

let norm_inf t =
  let a = t.a and n = t.n in
  let best = ref 0.0 in
  for i = 0 to t.m - 1 do
    let ri = i * n in
    let s = ref 0.0 in
    for j = 0 to n - 1 do
      s := !s +. Float.abs (Array.unsafe_get a (ri + j))
    done;
    if !s > !best then best := !s
  done;
  !best

let of_arrays rows_ =
  let m = Array.length rows_ in
  if m = 0 then create 0 0
  else begin
    let n = Array.length rows_.(0) in
    Array.iter (fun r -> if Array.length r <> n then invalid_arg "Mat.of_arrays: ragged") rows_;
    init m n (fun i j -> rows_.(i).(j))
  end

let to_arrays t = Array.init t.m (fun i -> Array.init t.n (fun j -> get t i j))

let pp ppf t =
  for i = 0 to t.m - 1 do
    Format.fprintf ppf "[";
    for j = 0 to t.n - 1 do
      Format.fprintf ppf (if j = 0 then "%10.4g" else " %10.4g") (get t i j)
    done;
    Format.fprintf ppf "]@\n"
  done
