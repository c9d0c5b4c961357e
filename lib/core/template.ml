(* Device-template expansion: the encapsulated evaluator for a MOS model
   declares drain/source series resistances, which introduce internal
   nodes. The expanded circuit is what both the bias network (type "B" in
   Table 1) and the small-signal AWE circuits (type "A") are built from —
   this is why the relaxed-dc formulation's added node-voltage variables
   typically outnumber the user's own variables. *)

let rd_expr rd_ohm_m w_expr =
  (* rd = rd_ohm_m / W; compile checks a fixed W is > 0, and a variable
     one comes from the design grid. *)
  Netlist.Expr.Div (Netlist.Expr.const rd_ohm_m, w_expr)

(* Every device's model is looked up here, once: an unknown model, or a
   MOS/BJT model on the other kind of element, fails naming the element. *)
let model ~registry name model =
  match Devices.Registry.find registry model with
  | Some m -> m
  | None -> failwith (Printf.sprintf "%s: unknown device model %S" name model)

let expand ~registry (circuit : Netlist.Circuit.t) =
  let extra_nodes = ref [] in
  let n_base = Netlist.Circuit.node_count circuit in
  let next = ref n_base in
  let fresh name =
    let id = !next in
    incr next;
    extra_nodes := name :: !extra_nodes;
    id
  in
  let out = ref [] in
  let emit e = out := e :: !out in
  Array.iter
    (fun (e : Netlist.Circuit.element) ->
      match e with
      | Netlist.Circuit.Mosfet ({ name; d; g = _; s; b = _; model = m; w; _ } as mos) -> begin
          match model ~registry name m with
          | Devices.Sig.Mos { rd_ohm_m; _ } when rd_ohm_m > 0.0 ->
              let d_int = fresh (name ^ "#d") in
              let s_int = fresh (name ^ "#s") in
              emit
                (Netlist.Circuit.Resistor
                   { name = name ^ "#rd"; n1 = d; n2 = d_int; value = rd_expr rd_ohm_m w });
              emit
                (Netlist.Circuit.Resistor
                   { name = name ^ "#rs"; n1 = s; n2 = s_int; value = rd_expr rd_ohm_m w });
              emit (Netlist.Circuit.Mosfet { mos with d = d_int; s = s_int })
          | Devices.Sig.Mos _ -> emit e
          | Devices.Sig.Bjt _ -> failwith (Printf.sprintf "%s: MOS element with BJT model %S" name m)
        end
      | Netlist.Circuit.Bjt { name; model = m; _ } -> begin
          match model ~registry name m with
          | Devices.Sig.Bjt _ -> emit e
          | Devices.Sig.Mos _ -> failwith (Printf.sprintf "%s: BJT element with MOS model %S" name m)
        end
      | Netlist.Circuit.Resistor _ | Netlist.Circuit.Capacitor _ | Netlist.Circuit.Inductor _
      | Netlist.Circuit.Vsource _ | Netlist.Circuit.Isource _ | Netlist.Circuit.Vcvs _
      | Netlist.Circuit.Vccs _ | Netlist.Circuit.Cccs _ | Netlist.Circuit.Ccvs _ ->
          emit e)
    circuit.Netlist.Circuit.elements;
  {
    Netlist.Circuit.node_names =
      Array.append circuit.Netlist.Circuit.node_names
        (Array.of_list (List.rev !extra_nodes));
    elements = Array.of_list (List.rev !out);
  }
