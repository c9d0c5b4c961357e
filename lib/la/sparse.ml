type triplets = { mutable entries : (int * int * float) list; mutable count : int }

let triplets () = { entries = []; count = 0 }

let add t i j v =
  if v <> 0.0 then begin
    t.entries <- (i, j, v) :: t.entries;
    t.count <- t.count + 1
  end

type t = {
  m : int;
  n : int;
  row_start : int array;  (** length m+1 *)
  col_index : int array;
  values : float array;
}

let compress ~rows ~cols t =
  (* Sort by (row, col), then merge duplicates. *)
  let arr = Array.of_list t.entries in
  Array.sort (fun (i1, j1, _) (i2, j2, _) -> if i1 <> i2 then compare i1 i2 else compare j1 j2) arr;
  let merged = ref [] in
  let nm = ref 0 in
  Array.iter
    (fun (i, j, v) ->
      match !merged with
      | (i', j', v') :: rest when i' = i && j' = j -> merged := (i, j, v +. v') :: rest
      | _ ->
          merged := (i, j, v) :: !merged;
          incr nm)
    arr;
  let entries = Array.of_list (List.rev !merged) in
  let entries = Array.of_seq (Seq.filter (fun (_, _, v) -> v <> 0.0) (Array.to_seq entries)) in
  let nnz = Array.length entries in
  let row_start = Array.make (rows + 1) 0 in
  Array.iter (fun (i, _, _) -> row_start.(i + 1) <- row_start.(i + 1) + 1) entries;
  for i = 1 to rows do
    row_start.(i) <- row_start.(i) + row_start.(i - 1)
  done;
  let col_index = Array.make nnz 0 and values = Array.make nnz 0.0 in
  Array.iteri
    (fun k (_, j, v) ->
      col_index.(k) <- j;
      values.(k) <- v)
    entries;
  { m = rows; n = cols; row_start; col_index; values }

(* A row-major scan meets the nonzeros already sorted by (row, col) and
   unique, so the CSR arrays fill directly: the same entries [compress]
   produces from their triplets, without the list and the sort. *)
let of_dense (dm : Mat.t) =
  let rows = dm.Mat.m and cols = dm.Mat.n and a = dm.Mat.a in
  let nnz = ref 0 in
  Array.iter (fun v -> if v <> 0.0 then incr nnz) a;
  let row_start = Array.make (rows + 1) 0 in
  let col_index = Array.make !nnz 0 and values = Array.make !nnz 0.0 in
  let k = ref 0 in
  for i = 0 to rows - 1 do
    let ri = i * cols in
    for j = 0 to cols - 1 do
      let v = Array.unsafe_get a (ri + j) in
      if v <> 0.0 then begin
        col_index.(!k) <- j;
        values.(!k) <- v;
        incr k
      end
    done;
    row_start.(i + 1) <- !k
  done;
  { m = rows; n = cols; row_start; col_index; values }

let rows t = t.m
let cols t = t.n
let nnz t = Array.length t.values

let mul_vec_into t x y =
  if Array.length x <> t.n || Array.length y <> t.m then invalid_arg "Sparse.mul_vec: dim";
  for i = 0 to t.m - 1 do
    let acc = ref 0.0 in
    for k = t.row_start.(i) to t.row_start.(i + 1) - 1 do
      acc := !acc +. (t.values.(k) *. x.(t.col_index.(k)))
    done;
    y.(i) <- !acc
  done

let mul_vec t x =
  let y = Array.make t.m 0.0 in
  mul_vec_into t x y;
  y

let to_dense t =
  let dm = Mat.create t.m t.n in
  for i = 0 to t.m - 1 do
    for k = t.row_start.(i) to t.row_start.(i + 1) - 1 do
      Mat.add_to dm i t.col_index.(k) t.values.(k)
    done
  done;
  dm
