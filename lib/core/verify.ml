(* Reference-simulator evaluation of the specs. See verify.mli. *)

exception Sim_failed of string

let value_of p st =
  let env = Eval.value_env p st in
  fun e -> Netlist.Expr.eval env e

(* A jig solved with full Newton-Raphson, linearized at that operating
   point. *)
type jig_sim = {
  lin : Mna.Linearize.t;
  sol : Mna.Dc.solution;
}

(* DC operating point of [circuit] by a cold solve. Where that fails, one
   retry starts from the design's own relaxed-dc node voltages, mapped by
   node name like a SPICE .nodeset: a winner whose bias point already
   satisfies KCL can still sit where the cold gmin schedule does not lead.
   Where that fails too, a fine source ramp is the last try: a winner far
   from KCL can have an operating point that the cold solve's coarse ramp
   steps past. The first attempt that converges is used as is. *)
let dc_solve (p : Problem.t) st ~value circuit =
  let registry = p.Problem.registry in
  let nodeset_retry () =
    match Eval.node_voltages p st with
    | exception (Failure _ | Netlist.Expr.Eval_error _) -> None
    | nv ->
        let names = p.Problem.bias.Netlist.Circuit.node_names in
        let hint name = Option.map (Array.get nv) (Array.find_index (String.equal name) names) in
        let x0 = Mna.Dc.nodeset circuit hint in
        Result.to_option (Mna.Dc.solve ~x0 ~value ~registry circuit)
  in
  match Mna.Dc.solve ~value ~registry circuit with
  | Ok sol -> Ok sol
  | Error e -> (
      match nodeset_retry () with
      | Some sol -> Ok sol
      | None -> (
          match Mna.Dc.solve_ramped ~value ~registry circuit with
          | Ok sol -> Ok sol
          | Error _ -> Error e))

let solve_jigs p st =
  let value = value_of p st in
  List.map
    (fun (j : Problem.jig) ->
      match dc_solve p st ~value j.jig_circuit with
      | Error e -> raise (Sim_failed (j.jig_name ^ ": " ^ e))
      | Ok sol ->
          let ops name = List.assoc_opt name sol.Mna.Dc.ops in
          let lin = Mna.Linearize.build ~value ~ops j.jig_circuit in
          { lin; sol })
    p.Problem.jigs

(* The reference-simulator backend of [Spec.eval] over [p] —
   parametrized so corner rows can rebuild it with the registry skewed to
   their corner. *)
let backend (p : Problem.t) (st : State.t) =
  let value = value_of p st in
  let jigs = solve_jigs p st in
  (* Exact bias operating point for device refs and power. *)
  let bias_sol =
    match dc_solve p st ~value p.Problem.bias with
    | Ok s -> s
    | Error e -> raise (Sim_failed ("bias: " ^ e))
  in
  (* [ac f tf]: [f] over [tf]'s jig linearization, excitation and output
     selector. *)
  let ac (f : Mna.Linearize.t -> b:La.Vec.t -> sel:La.Vec.t -> _) (tf : Spec.tf) =
    let js = List.nth jigs tf.Spec.tf_jig and ports = tf.Spec.tf_ports in
    let b = Mna.Linearize.excitation_of js.lin ~src:ports.Problem.src in
    let sel = Mna.Linearize.output_vector js.lin ~pos:ports.Problem.out_pos ~neg:ports.Problem.out_neg in
    f js.lin ~b ~sel
  in
  (* [slew_rate] and [settle] of one tf read one exact-step simulation. *)
  let trans = ref [] in
  let step (tf : Spec.tf) =
    let w =
      match List.assoc_opt tf.Spec.tf_name !trans with
      | Some w -> w
      | None ->
          let w =
            try Ok (Eval.step_wave p ~value tf ~dt:(fun tc -> tc.Netlist.Ast.tr_dt))
            with Eval.Measurement_failed m -> Error m
          in
          trans := (tf.Spec.tf_name, w) :: !trans;
          w
    in
    match w with Ok w -> w | Error m -> raise (Sim_failed m)
  in
  (* [ugf] and [phase_margin] of one tf read one unity-gain scan. *)
  let ugfs = ref [] in
  let ugf (tf : Spec.tf) =
    match List.assoc_opt tf.Spec.tf_name !ugfs with
    | Some fu -> fu
    | None ->
        let fu = ac Mna.Ac.unity_gain_freq tf in
        ugfs := (tf.Spec.tf_name, fu) :: !ugfs;
        fu
  in
  {
    Spec.op =
      (fun d ->
        (* Prefer the jig operating point (it is what AC sees), fall back
           to the bias network. *)
        let name = d.Spec.dev_name in
        match List.find_map (fun js -> List.assoc_opt name js.sol.Mna.Dc.ops) jigs with
        | Some op -> op
        | None -> (
            match List.assoc_opt name bias_sol.Mna.Dc.ops with
            | Some op -> op
            | None -> raise (Sim_failed ("no operating point for " ^ name))));
    dc_gain = ac Mna.Ac.dc_gain;
    ugf;
    pm = (fun tf -> Option.map (fun fu -> ac (Mna.Ac.phase_margin_at ~fu) tf) (ugf tf));
    gain_at = (fun tf f -> La.Cpx.abs (ac (Mna.Ac.transfer ~w:(2.0 *. Float.pi *. f)) tf));
    bw3db = (fun tf -> Some (ac Mna.Ac.bandwidth_3db tf));
    (* The reference flow extracts poles with AWE at the simulator's exact
       operating point (HSPICE's .pz plays this role). *)
    rom = ac (fun lin ~b ~sel -> Awe.Rom.build lin ~b ~sel);
    step;
    noise_density =
      (fun tf ->
        let ops n = List.assoc_opt n (List.nth jigs tf.Spec.tf_jig).sol.Mna.Dc.ops in
        try ac (fun lin ~b:_ ~sel -> Eval.output_noise_v2_per_hz lin ~value ~ops ~sel) tf
        with Eval.Measurement_failed m -> raise (Sim_failed m));
    area = (fun () -> Eval.active_area_um2 p st);
    power = (fun () -> Mna.Dc.supply_power bias_sol ~value);
    supply_current =
      (fun src ->
        match Mna.Dc.branch_current bias_sol src.Spec.vs_name with
        | Some i -> i
        | None -> raise (Sim_failed ("supply_current: unknown source " ^ src.Spec.vs_name)));
  }

let simulate_specs (p : Problem.t) (st : State.t) =
  try
    let b = backend p st in
    (* Corner rows re-solve everything under the skewed registry; a corner
       that fails to solve reports per-spec errors instead of failing the
       whole verification. *)
    let corner_backends =
      List.map
        (fun (cname, reg) ->
          ( cname,
            try Ok (backend { p with Problem.registry = reg } st) with
            | Sim_failed m -> Error m
            | Failure m -> Error m ))
        p.Problem.corner_regs
    in
    let eval_in bx (s : Problem.spec) =
      try Ok (Spec.eval bx st s.Problem.expr) with
      | Sim_failed m | Spec.Failed m | Netlist.Expr.Eval_error m -> Error m
    in
    let values =
      List.map
        (fun (s : Problem.spec) ->
          let v =
            match s.Problem.spec_corner with
            | None -> eval_in b s
            | Some c -> (
                match List.assoc_opt c corner_backends with
                | Some (Ok bc) -> eval_in bc s
                | Some (Error m) -> Error (Printf.sprintf "corner %s: %s" c m)
                | None -> Error ("unknown corner " ^ c))
          in
          (s.spec_name, v))
        p.Problem.specs
    in
    Ok values
  with
  | Sim_failed m -> Error m
  | Failure m -> Error m

let kcl_abs_error (p : Problem.t) (st : State.t) =
  match Eval.bias_point p st with
  | bp ->
      Ok (Array.fold_left (fun acc r -> Float.max acc (Float.abs r)) 0.0 bp.Eval.residuals)
  | exception Failure m -> Error m

let bias_voltage_error (p : Problem.t) (st : State.t) =
  let value = value_of p st in
  match Mna.Dc.solve ~value ~registry:p.Problem.registry p.Problem.bias with
  | Error e -> Error e
  | Ok sol ->
      let relaxed = Eval.node_voltages p st in
      let worst = ref 0.0 in
      Array.iteri
        (fun node v ->
          if node > 0 then
            worst := Float.max !worst (Float.abs (v -. Mna.Dc.node_voltage sol node)))
        relaxed;
      Ok !worst

(* Single-ended and differential outputs share one waveform extraction
   ([Tran.waveform_of]) and one overlap predicate ([Tran.peak_slew]): the
   interval straddling the step onset counts, so a stimulus edge that
   falls between samples is never dropped on either path. *)
let transient_slew (p : Problem.t) (st : State.t) ~tf ~vstep ~tstop ~dt =
  let value = value_of p st in
  match Eval.transient_response p ~value ~tf ~vstep ~tstop ~dt with
  | exception Eval.Measurement_failed m -> Error m
  | r, ports, t_step ->
      let v = Mna.Tran.waveform_of r ~pos:ports.Problem.out_pos ~neg:ports.Problem.out_neg in
      Ok (Mna.Tran.peak_slew ~times:r.Mna.Tran.times v ~t_from:t_step ~t_to:tstop)
