exception Error of string

let err fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* Element values take variables, parameters and math builtins only. The
   template divides by every MOS width (rd = rd_ohm_m / W): a .var grid
   keeps a width the variables reach off zero, so one they do not reach
   is fixed here and must be positive. *)
let check_values scope names where (c : Netlist.Circuit.t) =
  let fixed = Spec.value_env names (fun () -> [||]) in
  Array.iter
    (fun e ->
      let fail m = err "%s: %s: %s" where (Netlist.Circuit.element_name e) m in
      let resolve v = match Spec.resolve scope v with Ok r -> r | Error m -> fail m in
      List.iter (fun v -> ignore (resolve v)) (Netlist.Circuit.values e);
      match e with
      | Netlist.Circuit.Mosfet { w; _ } when (Spec.deps (resolve w)).Spec.d_vars = [] -> (
          let w_text = Netlist.Expr.to_string w in
          match Netlist.Expr.eval fixed w with
          | v when v > 0.0 -> ()
          | v -> fail (Printf.sprintf "width %s = %g is not positive" w_text v)
          | exception Netlist.Expr.Eval_error m -> fail (Printf.sprintf "width %s: %s" w_text m))
      | _ -> ())
    c.Netlist.Circuit.elements

let default_init (v : Netlist.Ast.var_decl) =
  match v.Netlist.Ast.init with
  | Some i -> i
  | None -> begin
      match v.grid with
      | Netlist.Ast.Grid_log -> Float.sqrt (v.vmin *. v.vmax)
      | Netlist.Ast.Grid_lin -> 0.5 *. (v.vmin +. v.vmax)
    end

let compile ?corner (ast : Netlist.Ast.problem) =
  try
    (* 1. Device model registry. *)
    let decls =
      List.map
        (fun (m : Netlist.Ast.model_decl) ->
          {
            Devices.Registry.decl_name = m.model_name;
            decl_kind = m.device_kind;
            decl_level = m.level;
            decl_params = m.mparams;
          })
        ast.models
    in
    let registry =
      match Devices.Registry.build ?process:ast.process ?corner decls with
      | Ok r -> r
      | Error e -> err "%s" e
    in
    (* Names resolve in one scope: user variables (state slots in
       declaration order), then .params. Every .param resolves in the
       element-value context, and [names] keeps each name's tree. *)
    let scope =
      {
        Spec.vars = List.map (fun (v : Netlist.Ast.var_decl) -> v.var_name) ast.vars;
        params = ast.params;
        measure = None;
      }
    in
    let names = Hashtbl.create 16 in
    List.iter
      (fun (name, e) ->
        match Spec.resolve ~param:name scope e with
        | Ok r -> if not (Hashtbl.mem names name) then Hashtbl.add names name r
        | Error m -> err "param %s: %s" name m)
      ast.params;
    List.iter
      (fun v -> Hashtbl.replace names v (Result.get_ok (Spec.resolve scope (Netlist.Expr.Ref [ v ]))))
      scope.Spec.vars;
    (* 2. Elaborate and template-expand the bias network. *)
    if ast.bias = [] then err "no .bias block: the relaxed-dc formulation needs a bias network";
    let bias_raw = Netlist.Elab.flatten ~subckts:ast.subckts ast.bias in
    check_values scope names "bias network" bias_raw;
    let bias = Template.expand ~registry bias_raw in
    (* Reject elements the bias formulation does not support. *)
    Array.iter
      (fun (e : Netlist.Circuit.element) ->
        match e with
        | Netlist.Circuit.Inductor { name; _ } -> err "bias network: inductor %s unsupported" name
        | Netlist.Circuit.Vcvs { name; _ }
        | Netlist.Circuit.Cccs { name; _ }
        | Netlist.Circuit.Ccvs { name; _ } ->
            err "bias network: controlled source %s unsupported" name
        | Netlist.Circuit.Resistor _ | Netlist.Circuit.Capacitor _ | Netlist.Circuit.Vsource _
        | Netlist.Circuit.Isource _ | Netlist.Circuit.Vccs _ | Netlist.Circuit.Mosfet _
        | Netlist.Circuit.Bjt _ ->
            ())
      bias.Netlist.Circuit.elements;
    let tl = Treelink.analyze bias in
    (* 3. Elaborate and expand each jig; resolve .pz ports. *)
    let jigs =
      List.map
        (fun (j : Netlist.Ast.jig) ->
          let flat = Netlist.Elab.flatten ~subckts:ast.subckts j.jig_body in
          check_values scope names ("jig " ^ j.jig_name) flat;
          let c = Template.expand ~registry flat in
          let tfs =
            List.map
              (fun (pz : Netlist.Ast.pz) ->
                let node name =
                  try Netlist.Circuit.find_node c name
                  with Not_found -> err "jig %s: unknown node %s in .pz" j.jig_name name
                in
                let src =
                  try Netlist.Circuit.element_name (Netlist.Circuit.find_element c pz.src)
                  with Not_found -> err "jig %s: unknown source %s in .pz" j.jig_name pz.src
                in
                ( pz.tf_name,
                  {
                    Problem.out_pos = node pz.out_pos;
                    out_neg = Option.map node pz.out_neg;
                    src;
                  } ))
              j.pzs
          in
          { Problem.jig_name = j.jig_name; jig_circuit = c; tfs; jig_tran = j.jig_tran })
        ast.jigs
    in
    (* 4. Cross-checks: every jig device must have a bias counterpart to
       take its operating point from. *)
    let bias_has name =
      match Netlist.Circuit.find_element bias name with
      | _ -> true
      | exception Not_found -> false
    in
    List.iter
      (fun (j : Problem.jig) ->
        Array.iter
          (fun (e : Netlist.Circuit.element) ->
            match e with
            | Netlist.Circuit.Mosfet { name; _ } | Netlist.Circuit.Bjt { name; _ } ->
                if not (bias_has name) then
                  err "jig %s: device %s has no counterpart in the bias network" j.jig_name name
            | Netlist.Circuit.Resistor _ | Netlist.Circuit.Capacitor _
            | Netlist.Circuit.Inductor _ | Netlist.Circuit.Vsource _ | Netlist.Circuit.Isource _
            | Netlist.Circuit.Vcvs _ | Netlist.Circuit.Vccs _ | Netlist.Circuit.Cccs _
            | Netlist.Circuit.Ccvs _ ->
                ())
          j.jig_circuit.Netlist.Circuit.elements)
      jigs;
    (* 5. Resolve every spec expression (Spec): names, arities,
       argument kinds, .tran budgets, device references; then corner
       names and targets. *)
    let tfs =
      List.concat
        (List.mapi
           (fun j (jig : Problem.jig) ->
             List.map
               (fun (tf_name, tf_ports) ->
                 { Spec.tf_name; tf_jig = j; tf_ports; tf_tran = jig.Problem.jig_tran })
               jig.Problem.tfs)
           jigs)
    in
    let spec_scope = { scope with Spec.measure = Some (tfs, bias) } in
    let specs =
      List.map
        (fun (s : Netlist.Ast.spec) ->
          let expr =
            match Spec.resolve spec_scope s.expr with
            | Ok e -> e
            | Error m -> err "spec %s: %s" s.spec_name m
          in
          (match s.spec_corner with
          | Some cname when Devices.Registry.find_corner cname = None ->
              err "spec %s: unknown corner %s (known: %s)" s.spec_name cname
                (String.concat ", "
                   (List.map
                      (fun (c : Devices.Registry.corner) -> c.Devices.Registry.corner_name)
                      Devices.Registry.standard_corners))
          | Some _ | None -> ());
          if s.good = s.bad then err "spec %s: good and bad must differ" s.spec_name;
          {
            Problem.spec_name = s.spec_name;
            kind = s.kind;
            expr;
            good = s.good;
            bad = s.bad;
            spec_corner = s.spec_corner;
          })
        ast.specs
    in
    if ast.specs = [] then err "no .obj/.spec cards";
    (* Registries for corner-named spec rows, resolved once here. A corner
       row is absolute — it names a standard corner regardless of any
       ?corner this whole compile was skewed to. *)
    let corner_regs =
      List.sort_uniq String.compare
        (List.filter_map (fun (s : Netlist.Ast.spec) -> s.spec_corner) ast.specs)
      |> List.map (fun cname ->
             let c = Option.get (Devices.Registry.find_corner cname) in
             match Devices.Registry.build ?process:ast.process ~corner:c decls with
             | Ok r -> (cname, r)
             | Error e -> err "corner %s: %s" cname e)
    in
    (* 6. Build the variable vector: user variables then node voltages.
       The supply bounds read the variables' unsnapped initial values. *)
    let init_vals = Array.of_list (List.map default_init ast.vars) in
    let env0 = Spec.value_env names (fun () -> init_vals) in
    let supply_bounds =
      Array.fold_left
        (fun (lo, hi) (e : Netlist.Circuit.element) ->
          match e with
          | Netlist.Circuit.Vsource { dc; _ } -> begin
              match Netlist.Expr.eval env0 dc with
              | v -> (Float.min lo v, Float.max hi v)
              | exception Netlist.Expr.Eval_error _ -> (lo, hi)
            end
          | Netlist.Circuit.Resistor _ | Netlist.Circuit.Capacitor _ | Netlist.Circuit.Inductor _
          | Netlist.Circuit.Isource _ | Netlist.Circuit.Vcvs _ | Netlist.Circuit.Vccs _
          | Netlist.Circuit.Cccs _ | Netlist.Circuit.Ccvs _ | Netlist.Circuit.Mosfet _
          | Netlist.Circuit.Bjt _ ->
              (lo, hi))
        (0.0, 0.0) bias.Netlist.Circuit.elements
    in
    let v_lo = fst supply_bounds -. 1.0 and v_hi = snd supply_bounds +. 1.0 in
    let user_infos =
      List.map
        (fun (v : Netlist.Ast.var_decl) ->
          if v.vmin <= 0.0 && v.grid = Netlist.Ast.Grid_log then
            err "var %s: log grid requires positive bounds" v.var_name;
          if v.vmin >= v.vmax then err "var %s: min >= max" v.var_name;
          State.User
            {
              name = v.var_name;
              vmin = v.vmin;
              vmax = v.vmax;
              grid =
                (match v.grid with
                | Netlist.Ast.Grid_log -> State.Log_grid
                | Netlist.Ast.Grid_lin -> State.Lin_grid);
              steps = v.steps;
            })
        ast.vars
    in
    let node_infos =
      List.init tl.Treelink.n_free (fun k ->
          State.Node_voltage
            {
              label = tl.Treelink.labels.(k);
              nodes = tl.Treelink.members.(k);
              vmin = v_lo;
              vmax = v_hi;
            })
    in
    let state0 = State.create (Array.of_list (user_infos @ node_infos)) in
    List.iteri
      (fun i (v : Netlist.Ast.var_decl) -> State.set_initial state0 i (default_init v))
      ast.vars;
    (* 7. Analysis metrics (the Table-1 row) including the size of the
       evaluator the original ASTRX would have emitted as C code. *)
    let n_devices_regioned =
      Array.fold_left
        (fun acc (e : Netlist.Circuit.element) ->
          match e with
          | Netlist.Circuit.Mosfet { name; _ } | Netlist.Circuit.Bjt { name; _ } ->
              if List.assoc_opt name ast.regions = Some Netlist.Ast.Region_any then acc
              else acc + 1
          | Netlist.Circuit.Resistor _ | Netlist.Circuit.Capacitor _ | Netlist.Circuit.Inductor _
          | Netlist.Circuit.Vsource _ | Netlist.Circuit.Isource _ | Netlist.Circuit.Vcvs _
          | Netlist.Circuit.Vccs _ | Netlist.Circuit.Cccs _ | Netlist.Circuit.Ccvs _ ->
              acc)
        0 bias.Netlist.Circuit.elements
    in
    let spec_expr_size =
      List.fold_left (fun acc (s : Netlist.Ast.spec) -> acc + Netlist.Expr.size s.expr) 0 ast.specs
    in
    let n_tfs = List.fold_left (fun acc (j : Problem.jig) -> acc + List.length j.tfs) 0 jigs in
    let n_cost_terms =
      List.length ast.specs + tl.Treelink.n_free + n_devices_regioned
    in
    let bias_elems = Netlist.Circuit.element_count bias in
    let jig_sizes =
      List.map
        (fun (j : Problem.jig) ->
          ( j.jig_name,
            Netlist.Circuit.node_count j.jig_circuit,
            Netlist.Circuit.element_count j.jig_circuit ))
        jigs
    in
    let jig_elems = List.fold_left (fun acc (_, _, e) -> acc + e) 0 jig_sizes in
    let lines_of_c =
      38 + (3 * spec_expr_size) + (12 * tl.Treelink.n_free) + (9 * bias_elems)
      + (7 * jig_elems) + (20 * n_tfs) + (6 * n_devices_regioned)
    in
    let analysis =
      {
        Problem.input_netlist_lines = ast.counts.netlist_lines;
        input_synth_lines = ast.counts.synth_lines;
        n_user_vars = List.length ast.vars;
        n_node_vars = tl.Treelink.n_free;
        n_cost_terms;
        lines_of_c;
        bias_nodes = Netlist.Circuit.node_count bias;
        bias_elements = bias_elems;
        awe_circuits = jig_sizes;
      }
    in
    (* 8. The static dependency graph the incremental evaluator walks
       (variable -> nodes -> elements -> jigs -> specs). *)
    let deps =
      Depgraph.analyze ~scope ~state0 ~bias ~tl ~jigs ~specs
    in
    Ok
      {
        Problem.title = ast.title;
        registry;
        names;
        state0;
        bias;
        tl;
        jigs;
        specs;
        corner_regs;
        regions = ast.regions;
        analysis;
        deps;
      }
  with
  | Error msg -> Result.Error ("astrx: " ^ msg)
  | Netlist.Elab.Error msg -> Result.Error ("astrx: elaboration: " ^ msg)
  | Failure msg -> Result.Error ("astrx: " ^ msg)

let compile_source ?corner src =
  match Netlist.Parser.parse_problem src with
  | ast -> compile ?corner ast
  | exception Netlist.Parser.Error (ln, msg) ->
      Result.Error (Printf.sprintf "astrx: parse error at line %d: %s" ln msg)
