type t = float array

let degree c =
  let rec scan k = if k <= 0 then 0 else if c.(k) <> 0.0 then k else scan (k - 1) in
  scan (Array.length c - 1)

let trim c =
  let d = degree c in
  Array.sub c 0 (d + 1)

let eval c x =
  let acc = ref 0.0 in
  for k = Array.length c - 1 downto 0 do
    acc := (!acc *. x) +. c.(k)
  done;
  !acc

(* Horner's rule acc <- acc * z + c_k on the float parts: Cpx.mul, then
   Cpx.add of the real coefficient, whose imaginary 0.0 is still added (it
   turns a -0.0 into +0.0). The point is read from arrays, so no float
   crosses the call boxed. *)
let eval_cpx_at c ~re ~im i ~out =
  let zr = re.(i) and zi = im.(i) in
  let ar = ref 0.0 and ai = ref 0.0 in
  for k = Array.length c - 1 downto 0 do
    let mr = (!ar *. zr) -. (!ai *. zi) and mi = (!ar *. zi) +. (!ai *. zr) in
    ar := mr +. c.(k);
    ai := mi +. 0.0
  done;
  out.(0) <- !ar;
  out.(1) <- !ai

let eval_cpx c (z : Cpx.t) =
  let out = [| 0.0; 0.0 |] in
  eval_cpx_at c ~re:[| z.re |] ~im:[| z.im |] 0 ~out;
  { Cpx.re = out.(0); im = out.(1) }

let derivative c =
  let n = Array.length c in
  if n <= 1 then [| 0.0 |] else Array.init (n - 1) (fun k -> float_of_int (k + 1) *. c.(k + 1))

let mul c1 c2 =
  let n1 = Array.length c1 and n2 = Array.length c2 in
  let r = Array.make (n1 + n2 - 1) 0.0 in
  for i = 0 to n1 - 1 do
    if c1.(i) <> 0.0 then
      for j = 0 to n2 - 1 do
        r.(i + j) <- r.(i + j) +. (c1.(i) *. c2.(j))
      done
  done;
  r

let add c1 c2 =
  let n = Int.max (Array.length c1) (Array.length c2) in
  let at c k = if k < Array.length c then c.(k) else 0.0 in
  Array.init n (fun k -> at c1 k +. at c2 k)

let scale k c = Array.map (fun v -> k *. v) c

let from_roots roots =
  (* Multiply out in complex arithmetic, then take real parts. *)
  let acc = ref [| Cpx.one |] in
  let mul_linear r =
    let c = !acc in
    let n = Array.length c in
    let out = Array.make (n + 1) Cpx.zero in
    for k = 0 to n - 1 do
      out.(k) <- Cpx.sub out.(k) (Cpx.mul r c.(k));
      out.(k + 1) <- Cpx.add out.(k + 1) c.(k)
    done;
    acc := out
  in
  Array.iter mul_linear roots;
  Array.map (fun z -> z.Cpx.re) !acc

let normalize c =
  let d = degree c in
  let lead = c.(d) in
  if lead = 0.0 then invalid_arg "Poly.normalize: zero polynomial";
  Array.init (d + 1) (fun k -> c.(k) /. lead)

let pp ppf c =
  let d = degree c in
  for k = 0 to d do
    if k = 0 then Format.fprintf ppf "%.6g" c.(k)
    else Format.fprintf ppf " %+.6g s^%d" c.(k) k
  done
