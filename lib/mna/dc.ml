type op_info = Mos_op of Devices.Sig.mos_op | Bjt_op of Devices.Sig.bjt_op

type solution = {
  index : Sysmat.t;
  x : float array;
  ops : (string * op_info) list;
  iterations : int;
}

let node_voltage sol node = if node = 0 then 0.0 else sol.x.(Sysmat.node_row sol.index node)

let branch_current sol name =
  Option.map (fun row -> sol.x.(row)) (Sysmat.branch_of_name sol.index name)

let supply_power sol ~value =
  Array.fold_left
    (fun acc e ->
      match e with
      | Netlist.Circuit.Vsource { name; dc; _ } -> begin
          match branch_current sol name with
          | Some i -> acc +. Float.abs (value dc *. i)
          | None -> acc
        end
      | Netlist.Circuit.Resistor _ | Netlist.Circuit.Capacitor _ | Netlist.Circuit.Inductor _
      | Netlist.Circuit.Isource _ | Netlist.Circuit.Vcvs _ | Netlist.Circuit.Vccs _
      | Netlist.Circuit.Cccs _ | Netlist.Circuit.Ccvs _ | Netlist.Circuit.Mosfet _
      | Netlist.Circuit.Bjt _ ->
          acc)
    0.0 sol.index.Sysmat.circuit.Netlist.Circuit.elements

(* One Newton iteration: assemble J and RHS at the linearization point [x],
   with sources scaled by [srcscale] and [gmin] to ground on every node.
   J is stamped into the caller's [jac], cleared first. *)
let assemble idx ~value ~registry ~gmin ~srcscale ~jac (x : float array) =
  let t = idx in
  let n = t.Sysmat.size in
  if La.Mat.rows jac <> n || La.Mat.cols jac <> n then invalid_arg "Dc.assemble: jac size";
  let j = jac in
  La.Mat.fill j 0.0;
  let b = La.Vec.create n in
  let v node = if node = 0 then 0.0 else x.(Sysmat.node_row t node) in
  let add_j = Sysmat.add_g t j in
  let nrow = Sysmat.node_row t in
  let brow name =
    match Sysmat.branch_of_name t name with
    | Some r -> r
    | None -> failwith ("reference to unknown voltage-defined element " ^ name)
  in
  (* gmin from every non-ground node to ground. *)
  for node = 1 to t.Sysmat.n_nodes - 1 do
    La.Mat.add_to j (nrow node) (nrow node) gmin
  done;
  let stamp_mos name d g s bb model w l m =
    let resolved = Devices.Registry.find_exn registry model in
    match resolved with
    | Devices.Sig.Bjt _ -> failwith (name ^ ": MOS element with BJT model")
    | Devices.Sig.Mos { eval; _ } ->
        let op = eval ~w ~l ~m ~vd:(v d) ~vg:(v g) ~vs:(v s) ~vb:(v bb) in
        let open Devices.Sig in
        (* Channel current: i_d = id0 + gm dvg + gds dvd + gmbs dvb
           - (gm+gds+gmbs) dvs ; rows d (+) and s (-). *)
        let gsum = op.gm +. op.gds +. op.gmbs in
        let ieq =
          op.id_ -. (op.gm *. v g) -. (op.gds *. v d) -. (op.gmbs *. v bb) +. (gsum *. v s)
        in
        let rd = nrow d and rs = nrow s in
        add_j rd (nrow g) op.gm;
        add_j rd (nrow d) op.gds;
        add_j rd (nrow bb) op.gmbs;
        add_j rd (nrow s) (-.gsum);
        add_j rs (nrow g) (-.op.gm);
        add_j rs (nrow d) (-.op.gds);
        add_j rs (nrow bb) (-.op.gmbs);
        add_j rs (nrow s) gsum;
        Sysmat.add_vec rd (-.ieq) b;
        Sysmat.add_vec rs ieq b;
        (* Bulk junctions: each is a nonlinear conductance between the bulk
           and a diffusion node — conductance plus equivalent source. *)
        let stamp_junction nd g_j i_now =
          let ieq_j = i_now -. (g_j *. (v bb -. v nd)) in
          Sysmat.stamp_conductance t j bb nd g_j;
          Sysmat.add_vec (nrow bb) (-.ieq_j) b;
          Sysmat.add_vec (nrow nd) ieq_j b
        in
        stamp_junction d op.gbd op.ibd_;
        stamp_junction s op.gbs op.ibs_
  in
  let stamp_bjt name c bb e model area =
    match Devices.Registry.find_exn registry model with
    | Devices.Sig.Mos _ -> failwith (name ^ ": BJT element with MOS model")
    | Devices.Sig.Bjt { eval; _ } ->
        let op = eval ~area ~vc:(v c) ~vb:(v bb) ~ve:(v e) in
        let open Devices.Sig in
        (* ic(vc,vb,ve), ib(vc,vb,ve); d/dve = -(d/dvc + d/dvb). *)
        let rc = nrow c and rb = nrow bb and re_ = nrow e in
        let dic_dvc = op.go and dic_dvb = op.bjt_gm in
        let dic_dve = -.(dic_dvc +. dic_dvb) in
        let dib_dvc = op.gmu and dib_dvb = op.gpi in
        let dib_dve = -.(dib_dvc +. dib_dvb) in
        add_j rc (nrow c) dic_dvc;
        add_j rc (nrow bb) dic_dvb;
        add_j rc (nrow e) dic_dve;
        add_j rb (nrow c) dib_dvc;
        add_j rb (nrow bb) dib_dvb;
        add_j rb (nrow e) dib_dve;
        (* Emitter row gets minus the sum (ie = -(ic+ib)). *)
        add_j re_ (nrow c) (-.(dic_dvc +. dib_dvc));
        add_j re_ (nrow bb) (-.(dic_dvb +. dib_dvb));
        add_j re_ (nrow e) (-.(dic_dve +. dib_dve));
        let ieq_c = op.ic -. (dic_dvc *. v c) -. (dic_dvb *. v bb) -. (dic_dve *. v e) in
        let ieq_b = op.ib -. (dib_dvc *. v c) -. (dib_dvb *. v bb) -. (dib_dve *. v e) in
        Sysmat.add_vec rc (-.ieq_c) b;
        Sysmat.add_vec rb (-.ieq_b) b;
        Sysmat.add_vec re_ (ieq_c +. ieq_b) b
  in
  let handle (e : Netlist.Circuit.element) =
    match e with
    | Netlist.Circuit.Resistor { name; n1; n2; value = ve } ->
        let r = value ve in
        if r <= 0.0 then failwith (name ^ ": non-positive resistance");
        Sysmat.stamp_conductance t j n1 n2 (1.0 /. r)
    | Netlist.Circuit.Capacitor _ -> ()
    | Netlist.Circuit.Inductor { name; n1; n2; _ } ->
        let row = brow name in
        add_j row (nrow n1) 1.0;
        add_j row (nrow n2) (-1.0);
        add_j (nrow n1) row 1.0;
        add_j (nrow n2) row (-1.0)
    | Netlist.Circuit.Vsource { name; np; nn; dc; _ } ->
        let row = brow name in
        add_j row (nrow np) 1.0;
        add_j row (nrow nn) (-1.0);
        add_j (nrow np) row 1.0;
        add_j (nrow nn) row (-1.0);
        Sysmat.add_vec row (srcscale *. value dc) b
    | Netlist.Circuit.Isource { np; nn; dc; _ } ->
        let i = srcscale *. value dc in
        Sysmat.add_vec (nrow np) (-.i) b;
        Sysmat.add_vec (nrow nn) i b
    | Netlist.Circuit.Vcvs { name; np; nn; ncp; ncn; gain } ->
        let row = brow name in
        let g = value gain in
        add_j row (nrow np) 1.0;
        add_j row (nrow nn) (-1.0);
        add_j row (nrow ncp) (-.g);
        add_j row (nrow ncn) g;
        add_j (nrow np) row 1.0;
        add_j (nrow nn) row (-1.0)
    | Netlist.Circuit.Vccs { np; nn; ncp; ncn; gm; _ } ->
        Sysmat.stamp_vccs t j np nn ncp ncn (value gm)
    | Netlist.Circuit.Cccs { np; nn; vsrc; gain; _ } ->
        let col = brow vsrc in
        add_j (nrow np) col (value gain);
        add_j (nrow nn) col (-.value gain)
    | Netlist.Circuit.Ccvs { name; np; nn; vsrc; r } ->
        let row = brow name in
        let col = brow vsrc in
        add_j row (nrow np) 1.0;
        add_j row (nrow nn) (-1.0);
        add_j row col (-.value r);
        add_j (nrow np) row 1.0;
        add_j (nrow nn) row (-1.0)
    | Netlist.Circuit.Mosfet { name; d; g; s; b = bb; model; w; l; mult } ->
        stamp_mos name d g s bb model (value w) (value l) (value mult)
    | Netlist.Circuit.Bjt { name; c; b = bb; e; model; area } ->
        stamp_bjt name c bb e model (value area)
  in
  Array.iter handle t.Sysmat.circuit.Netlist.Circuit.elements;
  b

let collect_ops idx ~value ~registry (x : float array) =
  let v node = if node = 0 then 0.0 else x.(Sysmat.node_row idx node) in
  Array.to_list
    (Array.of_seq
       (Seq.filter_map
          (fun (e : Netlist.Circuit.element) ->
            match e with
            | Netlist.Circuit.Mosfet { name; d; g; s; b; model; w; l; mult } -> begin
                match Devices.Registry.find_exn registry model with
                | Devices.Sig.Mos { eval; _ } ->
                    let op =
                      eval ~w:(value w) ~l:(value l) ~m:(value mult) ~vd:(v d) ~vg:(v g)
                        ~vs:(v s) ~vb:(v b)
                    in
                    Some (name, Mos_op op)
                | Devices.Sig.Bjt _ -> None
              end
            | Netlist.Circuit.Bjt { name; c; b; e = ne; model; area } -> begin
                match Devices.Registry.find_exn registry model with
                | Devices.Sig.Bjt { eval; _ } ->
                    let op = eval ~area:(value area) ~vc:(v c) ~vb:(v b) ~ve:(v ne) in
                    Some (name, Bjt_op op)
                | Devices.Sig.Mos _ -> None
              end
            | Netlist.Circuit.Resistor _ | Netlist.Circuit.Capacitor _
            | Netlist.Circuit.Inductor _ | Netlist.Circuit.Vsource _ | Netlist.Circuit.Isource _
            | Netlist.Circuit.Vcvs _ | Netlist.Circuit.Vccs _ | Netlist.Circuit.Cccs _
            | Netlist.Circuit.Ccvs _ ->
                None)
          (Array.to_seq idx.Sysmat.circuit.Netlist.Circuit.elements)))

(* Newton loop at fixed gmin/srcscale, warm-started from [x]. Returns the
   iterate and whether it converged. One Jacobian buffer serves every
   iteration: each is factored in place once its stamps are complete. *)
let newton idx ~value ~registry ~gmin ~srcscale ~max_iter x =
  let n = idx.Sysmat.size in
  let x = Array.copy x in
  let jac = La.Mat.create n n in
  let vstep_limit = 0.5 in
  let rec loop it =
    if it >= max_iter then (x, false, it)
    else begin
      let b = assemble idx ~value ~registry ~gmin ~srcscale ~jac x in
      match La.Lu.factor_in_place jac with
      | exception La.Lu.Singular _ -> (x, false, it)
      | lu ->
          let xnew = La.Lu.solve lu b in
          let maxdv = ref 0.0 in
          for k = 0 to n - 1 do
            let dv = xnew.(k) -. x.(k) in
            let limited =
              if k < idx.Sysmat.n_nodes - 1 then
                Float.max (-.vstep_limit) (Float.min vstep_limit dv)
              else dv
            in
            if k < idx.Sysmat.n_nodes - 1 then maxdv := Float.max !maxdv (Float.abs dv);
            x.(k) <- x.(k) +. limited
          done;
          if !maxdv < 1e-9 +. 1e-6 then (x, true, it + 1) else loop (it + 1)
    end
  in
  loop 0

let nodeset (circuit : Netlist.Circuit.t) hint =
  let idx = Sysmat.of_circuit circuit in
  let x = Array.make idx.Sysmat.size 0.0 in
  Array.iteri
    (fun node name ->
      if node > 0 then
        match hint name with Some v -> x.(Sysmat.node_row idx node) <- v | None -> ())
    circuit.Netlist.Circuit.node_names;
  x

(* Ramp every source through [scales] at gmin 1e-9, each Newton
   warm-started from the last whether or not it converged, then a plain
   Newton at the final gmin from the ramp's end point. *)
let source_ramp idx ~value ~registry ~max_iter ~total_iters scales =
  let x =
    List.fold_left
      (fun x scale ->
        let x', _, it = newton idx ~value ~registry ~gmin:1e-9 ~srcscale:scale ~max_iter x in
        total_iters := !total_iters + it;
        x')
      (Array.make idx.Sysmat.size 0.0)
      scales
  in
  let x', ok, it = newton idx ~value ~registry ~gmin:1e-12 ~srcscale:1.0 ~max_iter x in
  total_iters := !total_iters + it;
  (x', ok)

(* The solution record of a converged [run], or the error of a failed or
   raising one. *)
let converge idx ~value ~registry run =
  try
    let total_iters = ref 0 in
    let x_final, ok = run total_iters in
    if not ok then Error "dc: Newton-Raphson failed to converge"
    else
      Ok
        {
          index = idx;
          x = x_final;
          ops = collect_ops idx ~value ~registry x_final;
          iterations = !total_iters;
        }
  with
  | Failure msg -> Error ("dc: " ^ msg)
  | Netlist.Expr.Eval_error msg -> Error ("dc: " ^ msg)

let solve ?(max_iter = 200) ?x0 ~value ~registry circuit =
  let idx = Sysmat.of_circuit circuit in
  let x = match x0 with Some v -> Array.copy v | None -> Array.make idx.Sysmat.size 0.0 in
  if Array.length x <> idx.Sysmat.size then invalid_arg "Dc.solve: x0 size";
  converge idx ~value ~registry (fun total_iters ->
      (* A start point given by the caller is tried first with a plain
         Newton at the final gmin: from a point that already solves the
         circuit it converges at once, where the gmin schedule's heavy first
         damping would pull it away. *)
      let direct =
        match x0 with
        | None -> None
        | Some _ ->
            let x', ok, it = newton idx ~value ~registry ~gmin:1e-12 ~srcscale:1.0 ~max_iter x in
            total_iters := it;
            if ok then Some x' else None
      in
      (* gmin stepping: solve a heavily damped system first, then relax. *)
      let gmins = [ 1e-3; 1e-6; 1e-9; 1e-12 ] in
      let run_schedule x =
        List.fold_left
          (fun (x, ok_all) gmin ->
            let x', ok, it = newton idx ~value ~registry ~gmin ~srcscale:1.0 ~max_iter x in
            total_iters := !total_iters + it;
            (x', ok_all && ok))
          (x, true) gmins
      in
      let x_final, ok = match direct with Some x' -> (x', true) | None -> run_schedule x in
      if ok then (x_final, ok)
      else
        (* Source stepping fallback: ramp sources from 10% with gmin help. *)
        source_ramp idx ~value ~registry ~max_iter ~total_iters [ 0.1; 0.3; 0.5; 0.7; 0.9; 1.0 ])

let ramp_steps = 50

let solve_ramped ~value ~registry circuit =
  let idx = Sysmat.of_circuit circuit in
  converge idx ~value ~registry (fun total_iters ->
      source_ramp idx ~value ~registry ~max_iter:200 ~total_iters
        (List.init ramp_steps (fun k -> float_of_int (k + 1) /. float_of_int ramp_steps)))
