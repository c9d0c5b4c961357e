type op_info = Newton.op_info = Mos_op of Devices.Sig.mos_op | Bjt_op of Devices.Sig.bjt_op

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

let nodeset (circuit : Netlist.Circuit.t) hint =
  let idx = Sysmat.of_circuit circuit in
  let x = Array.make idx.Sysmat.size 0.0 in
  Array.iteri
    (fun node name ->
      if node > 0 then
        match hint name with Some v -> x.(Sysmat.node_row idx node) <- v | None -> ())
    circuit.Netlist.Circuit.node_names;
  x

(* Resolve [idx]'s circuit into one plan and run [schedule] on it. *)
let run ~value ~registry idx schedule =
  Result.bind (Newton.plan idx ~value ~registry ~stimulus:[]) (fun plan ->
      Result.map
        (fun (x, iterations) -> { index = idx; x; ops = Newton.ops plan; iterations })
        (schedule plan))

let solve ?(max_iter = 200) ?x0 ~value ~registry circuit =
  let idx = Sysmat.of_circuit circuit in
  Option.iter
    (fun x0 -> if Array.length x0 <> idx.Sysmat.size then invalid_arg "Dc.solve: x0 size")
    x0;
  run ~value ~registry idx (Newton.dc ?x0 ~max_iter)

let ramp_steps = 50

let solve_ramped ~value ~registry circuit =
  run ~value ~registry (Sysmat.of_circuit circuit) (Newton.dc_ramped ~steps:ramp_steps)
