(* The Newton core shared by DC and transient analysis.

   A solve resolves its circuit once into a stamp plan: each element, in
   element order, becomes its unknown rows (ground is -1, branch rows
   included), its model's evaluator and its element values. Iterations
   then evaluate the devices at the iterate and stamp from the plan into
   one reused Jacobian and right-hand side, element by element and in the
   stamp order within each element, so every matrix entry accumulates in
   the order of a walk over the circuit. *)

type op_info = Mos_op of Devices.Sig.mos_op | Bjt_op of Devices.Sig.bjt_op

(* A device's rows, evaluator and values, and its operating point at the
   last point [eval_devices] saw. *)
type mos = {
  mos_name : string;
  d : int;
  g : int;
  s : int;
  b : int;
  mos_eval : Devices.Sig.mos_eval;
  w : float;
  l : float;
  m : float;
  mutable mos_op : Devices.Sig.mos_op;
}

type bjt = {
  bjt_name : string;
  c : int;
  base : int;
  e : int;
  bjt_eval : Devices.Sig.bjt_eval;
  area : float;
  mutable bjt_op : Devices.Sig.bjt_op;
}

(* A stimulated source's [dc] is its waveform at the time last set. *)
type elem =
  | Conductance of { r1 : int; r2 : int; g : float }
  | Capacitor of { r1 : int; r2 : int; cap : Netlist.Expr.t }  (** open at DC *)
  | Inductor of { row : int; p : int; n : int }
  | Vsource of { row : int; p : int; n : int; mutable dc : float; wave : (float -> float) option }
  | Isource of { p : int; n : int; mutable dc : float; wave : (float -> float) option }
  | Vcvs of { row : int; p : int; n : int; cp : int; cn : int; gain : float }
  | Vccs of { p : int; n : int; cp : int; cn : int; gm : float }
  | Cccs of { p : int; n : int; col : int; gain : float }
  | Ccvs of { row : int; p : int; n : int; col : int; r : float }
  | Mos of mos
  | Bjt of bjt

type t = { idx : Sysmat.t; elems : elem array; jac : La.Mat.t; rhs : float array }

(* Operating points of devices not evaluated yet; [eval_devices] replaces
   them before any stamp reads one. *)
let no_mos_op =
  {
    Devices.Sig.id_ = 0.0; ibd_ = 0.0; ibs_ = 0.0; gm = 0.0; gds = 0.0; gmbs = 0.0; gbd = 0.0;
    gbs = 0.0; cgs = 0.0; cgd = 0.0; cgb = 0.0; cbd = 0.0; cbs = 0.0; vth = 0.0; vdsat = 0.0;
    vgst = 0.0; vgst_raw = 0.0; vds_mag = 0.0; region = Devices.Sig.Off;
  }

let no_bjt_op =
  {
    Devices.Sig.ic = 0.0; ib = 0.0; bjt_gm = 0.0; gpi = 0.0; go = 0.0; gmu = 0.0; cpi = 0.0;
    cmu = 0.0; ccs = 0.0; vbe_f = 0.0; bjt_region = Devices.Sig.Off;
  }

(* Resolve every element in element order, each in the order a stamping
   walk reads it: branch rows, then values (a MOS's multiplier, length,
   width), then the model. The first bad element raises its [Failure] or
   [Eval_error]. *)
let resolve idx ~value ~registry ~stimulus (e : Netlist.Circuit.element) =
  let row = Sysmat.node_row idx in
  let brow name =
    match Sysmat.branch_of_name idx name with
    | Some r -> r
    | None -> failwith ("reference to unknown voltage-defined element " ^ name)
  in
  let source name dc =
    match List.assoc_opt name stimulus with Some f -> (f 0.0, Some f) | None -> (value dc, None)
  in
  match e with
  | Netlist.Circuit.Resistor { name; n1; n2; value = ve } ->
      let r = value ve in
      if r <= 0.0 then failwith (name ^ ": non-positive resistance");
      Conductance { r1 = row n1; r2 = row n2; g = 1.0 /. r }
  | Netlist.Circuit.Capacitor { n1; n2; value = cap; _ } ->
      Capacitor { r1 = row n1; r2 = row n2; cap }
  | Netlist.Circuit.Inductor { name; n1; n2; _ } -> Inductor { row = brow name; p = row n1; n = row n2 }
  | Netlist.Circuit.Vsource { name; np; nn; dc; _ } ->
      let r = brow name in
      let dc, wave = source name dc in
      Vsource { row = r; p = row np; n = row nn; dc; wave }
  | Netlist.Circuit.Isource { name; np; nn; dc; _ } ->
      let dc, wave = source name dc in
      Isource { p = row np; n = row nn; dc; wave }
  | Netlist.Circuit.Vcvs { name; np; nn; ncp; ncn; gain } ->
      let r = brow name in
      Vcvs { row = r; p = row np; n = row nn; cp = row ncp; cn = row ncn; gain = value gain }
  | Netlist.Circuit.Vccs { np; nn; ncp; ncn; gm; _ } ->
      Vccs { p = row np; n = row nn; cp = row ncp; cn = row ncn; gm = value gm }
  | Netlist.Circuit.Cccs { np; nn; vsrc; gain; _ } ->
      let col = brow vsrc in
      Cccs { p = row np; n = row nn; col; gain = value gain }
  | Netlist.Circuit.Ccvs { name; np; nn; vsrc; r } ->
      let br = brow name in
      let col = brow vsrc in
      Ccvs { row = br; p = row np; n = row nn; col; r = value r }
  | Netlist.Circuit.Mosfet { name; d; g; s; b; model; w; l; mult } -> begin
      let m = value mult in
      let l = value l in
      let w = value w in
      match Devices.Registry.find_exn registry model with
      | Devices.Sig.Bjt _ -> failwith (name ^ ": MOS element with BJT model")
      | Devices.Sig.Mos { eval; _ } ->
          Mos
            {
              mos_name = name; d = row d; g = row g; s = row s; b = row b; mos_eval = eval; w; l; m;
              mos_op = no_mos_op;
            }
    end
  | Netlist.Circuit.Bjt { name; c; b; e; model; area } -> begin
      let area = value area in
      match Devices.Registry.find_exn registry model with
      | Devices.Sig.Mos _ -> failwith (name ^ ": BJT element with MOS model")
      | Devices.Sig.Bjt { eval; _ } ->
          Bjt
            {
              bjt_name = name; c = row c; base = row b; e = row e; bjt_eval = eval; area;
              bjt_op = no_bjt_op;
            }
    end

(* [plan idx ~value ~registry ~stimulus] resolves [idx]'s circuit. A
   source named in [stimulus] takes its waveform's value at t = 0 instead
   of its dc expression. *)
let plan idx ~value ~registry ~stimulus =
  let n = idx.Sysmat.size in
  match Array.map (resolve idx ~value ~registry ~stimulus) idx.Sysmat.circuit.Netlist.Circuit.elements with
  | elems -> Ok { idx; elems; jac = La.Mat.create n n; rhs = Array.make n 0.0 }
  | exception (Failure msg | Netlist.Expr.Eval_error msg) -> Error ("dc: " ^ msg)

(* [set_time t time] sets every stimulated source to its waveform at
   [time]. *)
let set_time t time =
  Array.iter
    (function
      | Vsource ({ wave = Some f; _ } as r) -> r.dc <- f time
      | Isource ({ wave = Some f; _ } as r) -> r.dc <- f time
      | Vsource _ | Isource _ | Conductance _ | Capacitor _ | Inductor _ | Vcvs _ | Vccs _ | Cccs _
      | Ccvs _ | Mos _ | Bjt _ ->
          ())
    t.elems

let voltage x r = if r < 0 then 0.0 else x.(r)

(* [eval_devices t x] evaluates every device at the unknowns [x]. *)
let eval_devices t x =
  let v = voltage x in
  Array.iter
    (function
      | Mos m ->
          m.mos_op <- m.mos_eval ~w:m.w ~l:m.l ~m:m.m ~vd:(v m.d) ~vg:(v m.g) ~vs:(v m.s) ~vb:(v m.b)
      | Bjt q -> q.bjt_op <- q.bjt_eval ~area:q.area ~vc:(v q.c) ~vb:(v q.base) ~ve:(v q.e)
      | Conductance _ | Capacitor _ | Inductor _ | Vsource _ | Isource _ | Vcvs _ | Vccs _ | Cccs _
      | Ccvs _ ->
          ())
    t.elems

(* [ops t] is every device's operating point by name, in element order. *)
let ops t =
  Array.fold_right
    (fun e acc ->
      match e with
      | Mos m -> (m.mos_name, Mos_op m.mos_op) :: acc
      | Bjt q -> (q.bjt_name, Bjt_op q.bjt_op) :: acc
      | Conductance _ | Capacitor _ | Inductor _ | Vsource _ | Isource _ | Vcvs _ | Vccs _ | Cccs _
      | Ccvs _ ->
          acc)
    t.elems []

(* Stamping primitives: contributions to a ground row or column drop.
   Every other row is an unknown of the plan's system, so the Jacobian's
   storage is indexed directly. *)
let add t i j v =
  if i >= 0 && j >= 0 then begin
    let a = t.jac.La.Mat.a and k = (i * t.jac.La.Mat.n) + j in
    Array.unsafe_set a k (Array.unsafe_get a k +. v)
  end

let add_rhs t i v = if i >= 0 then Array.unsafe_set t.rhs i (Array.unsafe_get t.rhs i +. v)

let add_conductance t i j g =
  add t i i g;
  add t j j g;
  add t i j (-.g);
  add t j i (-.g)

(* [stamp t ~gmin ~srcscale x] clears the Jacobian and right-hand side
   and stamps the Newton system linearized at [x]: [gmin] from every node
   to ground, sources scaled by [srcscale], and each device at the
   operating point [eval_devices] last gave it, which must be [x]'s. *)
let stamp t ~gmin ~srcscale x =
  La.Mat.fill t.jac 0.0;
  Array.fill t.rhs 0 (Array.length t.rhs) 0.0;
  let v = voltage x in
  for r = 0 to t.idx.Sysmat.n_nodes - 2 do
    add t r r gmin
  done;
  let branch row p n =
    add t row p 1.0;
    add t row n (-1.0);
    add t p row 1.0;
    add t n row (-1.0)
  in
  Array.iter
    (function
      | Conductance { r1; r2; g } -> add_conductance t r1 r2 g
      | Capacitor _ -> ()
      | Inductor { row; p; n } -> branch row p n
      | Vsource { row; p; n; dc; _ } ->
          branch row p n;
          add_rhs t row (srcscale *. dc)
      | Isource { p; n; dc; _ } ->
          let i = srcscale *. dc in
          add_rhs t p (-.i);
          add_rhs t n i
      | Vcvs { row; p; n; cp; cn; gain } ->
          add t row p 1.0;
          add t row n (-1.0);
          add t row cp (-.gain);
          add t row cn gain;
          add t p row 1.0;
          add t n row (-1.0)
      | Vccs { p; n; cp; cn; gm } ->
          add t p cp gm;
          add t p cn (-.gm);
          add t n cp (-.gm);
          add t n cn gm
      | Cccs { p; n; col; gain } ->
          add t p col gain;
          add t n col (-.gain)
      | Ccvs { row; p; n; col; r } ->
          add t row p 1.0;
          add t row n (-1.0);
          add t row col (-.r);
          add t p row 1.0;
          add t n row (-1.0)
      | Mos { d; g; s; b; mos_op = op; _ } ->
          let open Devices.Sig in
          (* Channel current: i_d = id0 + gm dvg + gds dvd + gmbs dvb
             - (gm+gds+gmbs) dvs ; rows d (+) and s (-). *)
          let gsum = op.gm +. op.gds +. op.gmbs in
          let ieq =
            op.id_ -. (op.gm *. v g) -. (op.gds *. v d) -. (op.gmbs *. v b) +. (gsum *. v s)
          in
          add t d g op.gm;
          add t d d op.gds;
          add t d b op.gmbs;
          add t d s (-.gsum);
          add t s g (-.op.gm);
          add t s d (-.op.gds);
          add t s b (-.op.gmbs);
          add t s s gsum;
          add_rhs t d (-.ieq);
          add_rhs t s ieq;
          (* Bulk junctions: each is a nonlinear conductance between the
             bulk and a diffusion node — conductance plus equivalent
             source. *)
          let junction nd g_j i_now =
            let ieq_j = i_now -. (g_j *. (v b -. v nd)) in
            add_conductance t b nd g_j;
            add_rhs t b (-.ieq_j);
            add_rhs t nd ieq_j
          in
          junction d op.gbd op.ibd_;
          junction s op.gbs op.ibs_
      | Bjt { c; base; e; bjt_op = op; _ } ->
          let open Devices.Sig in
          (* ic(vc,vb,ve), ib(vc,vb,ve); d/dve = -(d/dvc + d/dvb). *)
          let dic_dvc = op.go and dic_dvb = op.bjt_gm in
          let dic_dve = -.(dic_dvc +. dic_dvb) in
          let dib_dvc = op.gmu and dib_dvb = op.gpi in
          let dib_dve = -.(dib_dvc +. dib_dvb) in
          add t c c dic_dvc;
          add t c base dic_dvb;
          add t c e dic_dve;
          add t base c dib_dvc;
          add t base base dib_dvb;
          add t base e dib_dve;
          (* Emitter row gets minus the sum (ie = -(ic+ib)). *)
          add t e c (-.(dic_dvc +. dib_dvc));
          add t e base (-.(dic_dvb +. dib_dvb));
          add t e e (-.(dic_dve +. dib_dve));
          let ieq_c = op.ic -. (dic_dvc *. v c) -. (dic_dvb *. v base) -. (dic_dve *. v e) in
          let ieq_b = op.ib -. (dib_dvc *. v c) -. (dib_dvb *. v base) -. (dib_dve *. v e) in
          add_rhs t c (-.ieq_c);
          add_rhs t base (-.ieq_b);
          add_rhs t e (ieq_c +. ieq_b))
    t.elems

(* [update t x] takes the Newton step to the solution the right-hand side
   now holds, each node voltage's change clamped to 0.5 V, and returns the
   largest node-voltage change. *)
let update t x =
  let nodes = t.idx.Sysmat.n_nodes - 1 in
  let maxdv = ref 0.0 in
  for k = 0 to Array.length x - 1 do
    let dv = t.rhs.(k) -. x.(k) in
    let limited = if k < nodes then Float.max (-0.5) (Float.min 0.5 dv) else dv in
    if k < nodes then maxdv := Float.max !maxdv (Float.abs dv);
    x.(k) <- x.(k) +. limited
  done;
  !maxdv

(* DC Newton at fixed gmin/srcscale from [x]: the iterate, whether it
   converged, and the iterations taken. *)
let newton t ~gmin ~srcscale ~max_iter x =
  let x = Array.copy x in
  let rec loop it =
    if it >= max_iter then (x, false, it)
    else begin
      eval_devices t x;
      stamp t ~gmin ~srcscale x;
      match La.Lu.factor_in_place t.jac with
      | exception La.Lu.Singular _ -> (x, false, it)
      | lu ->
          La.Lu.solve_in_place lu t.rhs;
          if update t x < 1e-9 +. 1e-6 then (x, true, it + 1) else loop (it + 1)
    end
  in
  loop 0

(* Ramp every source through [scales] at gmin 1e-9, each Newton
   warm-started from the last whether or not it converged, then a plain
   Newton at the final gmin from the ramp's end point. *)
let source_ramp t ~max_iter ~total scales =
  let x =
    List.fold_left
      (fun x scale ->
        let x', _, it = newton t ~gmin:1e-9 ~srcscale:scale ~max_iter x in
        total := !total + it;
        x')
      (Array.make t.idx.Sysmat.size 0.0)
      scales
  in
  let x', ok, it = newton t ~gmin:1e-12 ~srcscale:1.0 ~max_iter x in
  total := !total + it;
  (x', ok)

(* The converged point of [run] and the iterations it took, with every
   device evaluated there. *)
let converge t run =
  let total = ref 0 in
  let x, ok = run total in
  if ok then begin
    eval_devices t x;
    Ok (x, !total)
  end
  else Error "dc: Newton-Raphson failed to converge"

let dc ?x0 t ~max_iter =
  converge t (fun total ->
      (* A start point given by the caller is tried first with a plain
         Newton at the final gmin: from a point that already solves the
         circuit it converges at once, where the gmin schedule's heavy
         first damping would pull it away. *)
      let direct =
        match x0 with
        | None -> None
        | Some x0 ->
            let x', ok, it = newton t ~gmin:1e-12 ~srcscale:1.0 ~max_iter x0 in
            total := it;
            if ok then Some x' else None
      in
      (* gmin stepping: solve a heavily damped system first, then relax. *)
      let run_schedule x =
        List.fold_left
          (fun (x, ok_all) gmin ->
            let x', ok, it = newton t ~gmin ~srcscale:1.0 ~max_iter x in
            total := !total + it;
            (x', ok_all && ok))
          (x, true) [ 1e-3; 1e-6; 1e-9; 1e-12 ]
      in
      let start = match x0 with Some x0 -> x0 | None -> Array.make t.idx.Sysmat.size 0.0 in
      let x_final, ok = match direct with Some x' -> (x', true) | None -> run_schedule start in
      if ok then (x_final, ok)
      else
        (* Source stepping fallback: ramp sources from 10% with gmin help. *)
        source_ramp t ~max_iter ~total [ 0.1; 0.3; 0.5; 0.7; 0.9; 1.0 ])

let dc_ramped t ~steps =
  converge t (fun total ->
      source_ramp t ~max_iter:200 ~total
        (List.init steps (fun k -> float_of_int (k + 1) /. float_of_int steps)))
