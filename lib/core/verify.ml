(* Reference-simulator evaluation of the specs. See verify.mli. *)

exception Sim_failed of string

let value_of p st =
  let env = Eval.value_env p st in
  fun e -> Netlist.Expr.eval env e

(* Solve every jig with full Newton-Raphson and wrap direct-AC measurement
   closures per transfer function. *)
type jig_sim = {
  lin : Mna.Linearize.t;
  sol : Mna.Dc.solution;
  tf_ports : (string * Problem.tf) list;
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
          { lin; sol; tf_ports = j.tfs })
    p.Problem.jigs

let find_tf jigs name =
  List.find_map
    (fun js ->
      Option.map (fun tf -> (js, tf)) (List.assoc_opt name js.tf_ports))
    jigs

(* Full-NR measurement environment over [p] — parametrized so corner rows
   can rebuild it with the registry skewed to their corner. *)
let make_env (p : Problem.t) (st : State.t) =
  let value = value_of p st in
  let jigs = solve_jigs p st in
  (* Exact bias operating point for device refs and power. *)
  let bias_sol =
    match dc_solve p st ~value p.Problem.bias with
    | Ok s -> s
    | Error e -> raise (Sim_failed ("bias: " ^ e))
  in
  let tf_measure name =
      match find_tf jigs name with
      | None -> raise (Sim_failed ("unknown transfer function " ^ name))
      | Some (js, tf) ->
          let b = Mna.Linearize.excitation_of js.lin ~src:tf.Problem.src in
          let sel =
            Mna.Linearize.output_vector js.lin ~pos:tf.Problem.out_pos ~neg:tf.Problem.out_neg
          in
          (js, b, sel)
    in
    let lookup path =
      match path with
      | [ name ] -> (Eval.value_env p st).Netlist.Expr.lookup [ name ]
      | [] -> raise Not_found
      | parts ->
          let rec split_last acc = function
            | [ last ] -> (List.rev acc, last)
            | x :: rest -> split_last (x :: acc) rest
            | [] -> assert false
          in
          let devparts, field = split_last [] parts in
          let devname = String.concat "." devparts in
          let op =
            (* Prefer the jig operating point (it is what AC sees), fall
               back to the bias network. *)
            match
              List.find_map (fun js -> List.assoc_opt devname js.sol.Mna.Dc.ops) jigs
            with
            | Some op -> Some op
            | None -> List.assoc_opt devname bias_sol.Mna.Dc.ops
          in
          (match op with Some op -> Eval.op_field op field | None -> raise Not_found)
    in
    (* Exact-step transient of [tf] under the owning jig's .tran card,
       through the same shared stimulus helper the in-loop evaluator uses
       (Eval.transient_response) — the verification differs only in step
       size (tr_dt, never the coarse tr_dtloop). *)
    let simulate_tran tfn =
      match Eval.tran_card_of p tfn with
      | exception Eval.Measurement_failed m -> Error m
      | tc -> begin
          match
            Eval.transient_response p ~value ~tf:tfn ~vstep:tc.Netlist.Ast.tr_vstep
              ~tstop:tc.Netlist.Ast.tr_tstop ~dt:tc.Netlist.Ast.tr_dt
          with
          | exception Eval.Measurement_failed m -> Error m
          | r, ports, t_step ->
              let v =
                Mna.Tran.waveform_of r ~pos:ports.Problem.out_pos ~neg:ports.Problem.out_neg
              in
              Ok (tc, r, v, t_step)
        end
    in
    (* [slew_rate] and [settle] of one tf read one simulation. *)
    let trans = ref [] in
    let tran_of tfn =
      let w =
        match List.assoc_opt tfn !trans with
        | Some w -> w
        | None ->
            let w = simulate_tran tfn in
            trans := (tfn, w) :: !trans;
            w
      in
      match w with Ok w -> w | Error m -> raise (Sim_failed m)
    in
    let settle_of tfn tol =
      let _, r, v, t_step = tran_of tfn in
      Mna.Tran.settling_time ~times:r.Mna.Tran.times v ~t_from:t_step ~tol
    in
    (* [ugf] and [phase_margin] of one tf read one unity-gain scan. *)
    let ugfs = ref [] in
    let ugf_of tfn =
      match List.assoc_opt tfn !ugfs with
      | Some fu -> fu
      | None ->
          let js, b, sel = tf_measure tfn in
          let fu = Mna.Ac.unity_gain_freq js.lin ~b ~sel in
          ugfs := (tfn, fu) :: !ugfs;
          fu
    in
    let call name args =
      let tfarg = function
        | Netlist.Expr.Name n -> n
        | Netlist.Expr.Num _ -> raise (Sim_failed (name ^ ": expected transfer-function name"))
      in
      let numarg = function
        | Netlist.Expr.Num v -> v
        | Netlist.Expr.Name n -> raise (Sim_failed (name ^ ": unexpected name " ^ n))
      in
      match (name, args) with
      | "dc_gain", [ tf ] ->
          let js, b, sel = tf_measure (tfarg tf) in
          Mna.Ac.dc_gain js.lin ~b ~sel
      | "ugf", [ tf ] -> Option.value ~default:0.0 (ugf_of (tfarg tf))
      | ("phase_margin" | "pm"), [ tf ] -> (
          let tfn = tfarg tf in
          match ugf_of tfn with
          | None -> 180.0
          | Some fu ->
              let js, b, sel = tf_measure tfn in
              Mna.Ac.phase_margin_at js.lin ~b ~sel ~fu)
      | "gain_at", [ tf; f ] ->
          let js, b, sel = tf_measure (tfarg tf) in
          La.Cpx.abs (Mna.Ac.transfer js.lin ~b ~sel ~w:(2.0 *. Float.pi *. numarg f))
      | "bw3db", [ tf ] ->
          let js, b, sel = tf_measure (tfarg tf) in
          Mna.Ac.bandwidth_3db js.lin ~b ~sel
      | "pole1", [ tf ] ->
          (* The reference flow extracts poles with AWE at the simulator's
             exact operating point (HSPICE's .pz plays this role). *)
          let js, b, sel = tf_measure (tfarg tf) in
          (match Awe.Rom.build js.lin ~b ~sel with
          | Ok rom -> Option.value ~default:0.0 (Awe.Rom.dominant_pole_hz rom)
          | Error e -> raise (Sim_failed ("pole1: " ^ e)))
      | "gain_margin_db", [ tf ] ->
          let js, b, sel = tf_measure (tfarg tf) in
          (match Awe.Rom.build js.lin ~b ~sel with
          | Ok rom -> Option.value ~default:60.0 (Awe.Rom.gain_margin_db rom)
          | Error e -> raise (Sim_failed ("gain_margin_db: " ^ e)))
      | "slew_rate", [ tf ] ->
          let tc, r, v, t_step = tran_of (tfarg tf) in
          Mna.Tran.peak_slew ~times:r.Mna.Tran.times v ~t_from:t_step
            ~t_to:tc.Netlist.Ast.tr_tstop
      | "settle", [ tf ] -> settle_of (tfarg tf) 0.01
      | "settle", [ tf; tol ] -> settle_of (tfarg tf) (numarg tol)
      | "noise_out_uv", [ tf ] -> begin
          let tfn = tfarg tf in
          let js, b, sel = tf_measure tfn in
          let bw = Mna.Ac.bandwidth_3db js.lin ~b ~sel in
          if not (bw > 0.0) then raise (Sim_failed (tfn ^ ": noise bandwidth unavailable"))
          else begin
            let enbw = Float.pi /. 2.0 *. bw in
            let ops n = List.assoc_opt n js.sol.Mna.Dc.ops in
            match Eval.output_noise_v2_per_hz js.lin ~value ~ops ~sel with
            | exception Eval.Measurement_failed m -> raise (Sim_failed m)
            | s0 -> Float.sqrt (Float.max 0.0 (s0 *. enbw)) *. 1e6
          end
        end
      | "psrr_db", [ stf; suptf ] ->
          let js1, b1, sel1 = tf_measure (tfarg stf) in
          let js2, b2, sel2 = tf_measure (tfarg suptf) in
          let a_sig = Float.abs (Mna.Ac.dc_gain js1.lin ~b:b1 ~sel:sel1) in
          let a_sup = Float.abs (Mna.Ac.dc_gain js2.lin ~b:b2 ~sel:sel2) in
          if a_sup < 1e-30 then 300.0
          else 20.0 *. Float.log10 (Float.max a_sig 1e-30 /. a_sup)
      | "area", [] -> Eval.active_area_um2 p st
      | "power", [] -> Mna.Dc.supply_power bias_sol ~value
      | "supply_current", [ src ] -> begin
          let srcname =
            match src with
            | Netlist.Expr.Name n -> n
            | Netlist.Expr.Num _ -> raise (Sim_failed "supply_current: expected a source name")
          in
          match Mna.Dc.branch_current bias_sol srcname with
          | Some i -> Float.abs i
          | None -> raise (Sim_failed ("supply_current: unknown source " ^ srcname))
        end
      | _ -> begin
          try Builtin.math_call name args
          with Builtin.Unknown_function f -> raise (Sim_failed ("unknown function " ^ f))
        end
    in
    { Netlist.Expr.lookup; call }

let simulate_specs (p : Problem.t) (st : State.t) =
  try
    let env = make_env p st in
    (* Corner rows re-solve everything under the skewed registry; a corner
       that fails to solve reports per-spec errors instead of failing the
       whole verification. *)
    let corner_envs =
      List.map
        (fun (cname, reg) ->
          ( cname,
            try Ok (make_env { p with Problem.registry = reg } st) with
            | Sim_failed m -> Error m
            | Failure m -> Error m ))
        p.Problem.corner_regs
    in
    let eval_in envx (s : Problem.spec) =
      try Ok (Netlist.Expr.eval envx s.Problem.expr) with
      | Sim_failed m -> Error m
      | Netlist.Expr.Eval_error m -> Error m
    in
    let values =
      List.map
        (fun (s : Problem.spec) ->
          let v =
            match s.Problem.spec_corner with
            | None -> eval_in env s
            | Some c -> (
                match List.assoc_opt c corner_envs with
                | Some (Ok envc) -> eval_in envc s
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

let transient_settle (p : Problem.t) (st : State.t) ~tf ~tol ~vstep ~tstop ~dt =
  let value = value_of p st in
  match Eval.transient_response p ~value ~tf ~vstep ~tstop ~dt with
  | exception Eval.Measurement_failed m -> Error m
  | r, ports, t_step ->
      let v = Mna.Tran.waveform_of r ~pos:ports.Problem.out_pos ~neg:ports.Problem.out_neg in
      Ok (Mna.Tran.settling_time ~times:r.Mna.Tran.times v ~t_from:t_step ~tol)
