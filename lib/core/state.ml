(* The OBLX design state: one slot per independent variable x_i.

   User variables may be discrete (device geometries on a log or linear
   grid — etching precision makes finer exploration pointless, and the grid
   shrinks the search space) or continuous (currents, bias voltages). The
   node voltages added by the relaxed-dc formulation are always
   continuous. *)

type grid = Log_grid | Lin_grid

type var_info =
  | User of {
      name : string;
      vmin : float;
      vmax : float;
      grid : grid;
      steps : int option;  (** None = continuous *)
    }
  | Node_voltage of {
      label : string;  (** representative bias-circuit node name *)
      nodes : int list;  (** bias nodes sharing this variable (supernode) *)
      vmin : float;
      vmax : float;
    }

type t = {
  info : var_info array;
  values : float array;
  grid_index : int array;  (** current grid slot for discrete vars, else -1 *)
}

let n_vars t = Array.length t.info

let var_name info =
  match info with User { name; _ } -> name | Node_voltage { label; _ } -> "v(" ^ label ^ ")"

let is_discrete info =
  match info with User { steps = Some _; _ } -> true | User _ | Node_voltage _ -> false

let bounds info =
  match info with
  | User { vmin; vmax; _ } -> (vmin, vmax)
  | Node_voltage { vmin; vmax; _ } -> (vmin, vmax)

(* Value of grid slot [k] for a discrete variable with [n] steps. *)
let grid_value ~vmin ~vmax ~grid ~n k =
  if n <= 1 then vmin
  else begin
    let f = float_of_int k /. float_of_int (n - 1) in
    match grid with
    | Lin_grid -> vmin +. (f *. (vmax -. vmin))
    | Log_grid -> vmin *. ((vmax /. vmin) ** f)
  end

(* Nearest grid slot to [v]. *)
let grid_slot ~vmin ~vmax ~grid ~n v =
  if n <= 1 then 0
  else begin
    let f =
      match grid with
      | Lin_grid -> (v -. vmin) /. (vmax -. vmin)
      | Log_grid -> Float.log (Float.max (v /. vmin) 1e-30) /. Float.log (vmax /. vmin)
    in
    Int.max 0 (Int.min (n - 1) (int_of_float (Float.round (f *. float_of_int (n - 1)))))
  end

let create infos =
  let n = Array.length infos in
  let values = Array.make n 0.0 in
  let grid_index = Array.make n (-1) in
  Array.iteri
    (fun i info ->
      match info with
      | User { vmin; vmax; grid; steps = Some s; _ } ->
          let mid =
            match grid with
            | Log_grid -> Float.sqrt (vmin *. vmax)
            | Lin_grid -> 0.5 *. (vmin +. vmax)
          in
          let k = grid_slot ~vmin ~vmax ~grid ~n:s mid in
          grid_index.(i) <- k;
          values.(i) <- grid_value ~vmin ~vmax ~grid ~n:s k
      | User { vmin; vmax; grid; steps = None; _ } ->
          values.(i) <-
            (match grid with
            | Log_grid -> Float.sqrt (Float.max vmin 1e-30 *. Float.max vmax 1e-30)
            | Lin_grid -> 0.5 *. (vmin +. vmax))
      | Node_voltage { vmin; vmax; _ } -> values.(i) <- 0.5 *. (vmin +. vmax))
    infos;
  { info = infos; values; grid_index }

let set_initial t i v =
  match t.info.(i) with
  | User { vmin; vmax; grid; steps = Some s; _ } ->
      let k = grid_slot ~vmin ~vmax ~grid ~n:s v in
      t.grid_index.(i) <- k;
      t.values.(i) <- grid_value ~vmin ~vmax ~grid ~n:s k
  | User { vmin; vmax; _ } | Node_voltage { vmin; vmax; _ } ->
      t.values.(i) <- Float.max vmin (Float.min vmax v)

let snapshot t =
  { info = t.info; values = Array.copy t.values; grid_index = Array.copy t.grid_index }

let restore ~from t =
  Array.blit from.values 0 t.values 0 (Array.length t.values);
  Array.blit from.grid_index 0 t.grid_index 0 (Array.length t.grid_index)

(* Clamp a proposed continuous value into the variable's range. *)
let clamp t i v =
  let lo, hi = bounds t.info.(i) in
  Float.max lo (Float.min hi v)

(* Move a discrete variable to slot [k] (clamped); returns the old slot. *)
let set_grid_slot t i k =
  match t.info.(i) with
  | User { vmin; vmax; grid; steps = Some s; _ } ->
      let old = t.grid_index.(i) in
      let k = Int.max 0 (Int.min (s - 1) k) in
      t.grid_index.(i) <- k;
      t.values.(i) <- grid_value ~vmin ~vmax ~grid ~n:s k;
      old
  | User _ | Node_voltage _ -> invalid_arg "State.set_grid_slot: not discrete"
