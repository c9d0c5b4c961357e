let eng v =
  if Float.abs v >= 0.9995e9 then Printf.sprintf "%.3gg" (v /. 1e9)
  else if Float.abs v >= 0.9995e6 then Printf.sprintf "%.3gmeg" (v /. 1e6)
  else if Float.abs v >= 0.9995e3 then Printf.sprintf "%.3gk" (v /. 1e3)
  else if v = 0.0 then "0"
  else if Float.abs v >= 1.0 then Printf.sprintf "%.4g" v
  else if Float.abs v >= 1e-3 then Printf.sprintf "%.3gm" (v *. 1e3)
  else if Float.abs v >= 1e-6 then Printf.sprintf "%.3gu" (v *. 1e6)
  else if Float.abs v >= 1e-9 then Printf.sprintf "%.3gn" (v *. 1e9)
  else if Float.abs v >= 1e-12 then Printf.sprintf "%.3gp" (v *. 1e12)
  else Printf.sprintf "%.3g" v

let goal_text (s : Problem.spec) =
  match s.kind with
  | Netlist.Ast.Objective_max -> "maximize"
  | Netlist.Ast.Objective_min -> "minimize"
  | Netlist.Ast.Constraint_ge -> ">=" ^ eng s.good
  | Netlist.Ast.Constraint_le -> "<=" ^ eng s.good

let spec_row (s : Problem.spec) ~predicted ~simulated =
  let p = match predicted with Some v -> eng v | None -> "fail" in
  let m =
    match simulated with
    | Some (Ok v) -> eng v
    | Some (Error _) -> "fail"
    | None -> "-"
  in
  Printf.sprintf "%-10s %-12s %10s / %-10s" s.spec_name (goal_text s) p m

let sizes (p : Problem.t) (st : State.t) =
  let n = Problem.n_user_vars p in
  List.init n (fun i ->
      match st.State.info.(i) with
      | State.User { name; _ } -> (name, st.State.values.(i))
      | State.Node_voltage _ -> assert false)

let print_sizes ppf p st =
  List.iter (fun (name, v) -> Format.fprintf ppf "  %-8s = %s@\n" name (eng v)) (sizes p st)

let sized_netlist (p : Problem.t) (st : State.t) =
  let env = Eval.value_env p st in
  let value e = Netlist.Expr.eval env e in
  let c = p.Problem.bias in
  let node n = c.Netlist.Circuit.node_names.(n) in
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  add "* %s -- sized by OBLX" p.Problem.title;
  (* Internal template nodes look like "name#d"; the channel device behind
     them is emitted at its *external* nodes, and the template resistors
     are dropped: they are part of the device model. *)
  let is_template_node n = String.contains (node n) '#' in
  let external_of n =
    if not (is_template_node n) then n
    else begin
      (* name#d connects through resistor name#rd to the external node *)
      let target = node n in
      let rec scan k =
        if k >= Array.length c.Netlist.Circuit.elements then n
        else
          match c.Netlist.Circuit.elements.(k) with
          | Netlist.Circuit.Resistor { name; n1; n2; _ }
            when String.contains name '#' && (n1 = n || n2 = n) ->
              ignore target;
              if n1 = n then n2 else n1
          | Netlist.Circuit.Resistor _ | Netlist.Circuit.Capacitor _
          | Netlist.Circuit.Inductor _ | Netlist.Circuit.Vsource _ | Netlist.Circuit.Isource _
          | Netlist.Circuit.Vcvs _ | Netlist.Circuit.Vccs _ | Netlist.Circuit.Cccs _
          | Netlist.Circuit.Ccvs _ | Netlist.Circuit.Mosfet _ | Netlist.Circuit.Bjt _ ->
              scan (k + 1)
      in
      scan 0
    end
  in
  Array.iter
    (fun (e : Netlist.Circuit.element) ->
      match e with
      | Netlist.Circuit.Resistor { name; n1; n2; value = ve } ->
          if not (String.contains name '#') then
            add "r%s %s %s %s" name (node n1) (node n2) (eng (value ve))
      | Netlist.Circuit.Capacitor { name; n1; n2; value = ve } ->
          add "c%s %s %s %s" name (node n1) (node n2) (eng (value ve))
      | Netlist.Circuit.Inductor { name; n1; n2; value = ve } ->
          add "l%s %s %s %s" name (node n1) (node n2) (eng (value ve))
      | Netlist.Circuit.Vsource { name; np; nn; dc; _ } ->
          add "v%s %s %s %s" name (node np) (node nn) (eng (value dc))
      | Netlist.Circuit.Isource { name; np; nn; dc; _ } ->
          add "i%s %s %s %s" name (node np) (node nn) (eng (value dc))
      | Netlist.Circuit.Vcvs { name; np; nn; ncp; ncn; gain } ->
          add "e%s %s %s %s %s %g" name (node np) (node nn) (node ncp) (node ncn) (value gain)
      | Netlist.Circuit.Vccs { name; np; nn; ncp; ncn; gm } ->
          add "g%s %s %s %s %s %g" name (node np) (node nn) (node ncp) (node ncn) (value gm)
      | Netlist.Circuit.Cccs { name; np; nn; vsrc; gain } ->
          add "f%s %s %s %s %g" name (node np) (node nn) vsrc (value gain)
      | Netlist.Circuit.Ccvs { name; np; nn; vsrc; r } ->
          add "h%s %s %s %s %g" name (node np) (node nn) vsrc (value r)
      | Netlist.Circuit.Mosfet { name; d; g; s; b; model; w; l; mult } ->
          add "m%s %s %s %s %s %s w=%s l=%s m=%g" name
            (node (external_of d)) (node g) (node (external_of s)) (node b) model
            (eng (value w)) (eng (value l)) (value mult)
      | Netlist.Circuit.Bjt { name; c = nc; b; e = ne; model; area } ->
          add "q%s %s %s %s %s %g" name (node nc) (node b) (node ne) model (value area))
    c.Netlist.Circuit.elements;
  add ".end";
  Buffer.contents buf
