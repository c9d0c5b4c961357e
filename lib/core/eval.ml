type bias_point = {
  node_v : float array;
  ops : (string * Mna.Dc.op_info) list;
  residuals : float array;
  res_scale : float array;
  node_leaving : float array;
      (* per bias node: total current leaving into non-source elements *)
}

exception Measurement_failed of string

(* --- Element-value environment: state variables, parameters, math. --- *)

(* The environment closures read the state through [get_st], so one
   environment built once can serve a whole annealing run whose state
   record is swapped (or mutated) underneath it — the incremental session
   allocates its environments in [Incr.create] instead of once per
   evaluation. Names read their compile-resolved trees. *)
let value_env_get (p : Problem.t) (get_st : unit -> State.t) =
  Spec.value_env p.Problem.names (fun () -> (get_st ()).State.values)

let value_env (p : Problem.t) (st : State.t) = value_env_get p (fun () -> st)

(* --- Node voltages from the tree-link assignment. --- *)

let node_voltage_of (p : Problem.t) (st : State.t) env node =
  let base = Problem.node_var_base p in
  match p.Problem.tl.Treelink.of_node.(node) with
  | Treelink.Fixed e -> Netlist.Expr.eval env e
  | Treelink.Free (k, off) -> st.State.values.(base + k) +. Netlist.Expr.eval env off

let node_voltages (p : Problem.t) (st : State.t) =
  let env = value_env p st in
  Array.init (Array.length p.Problem.tl.Treelink.of_node) (node_voltage_of p st env)

(* --- The element kernel. ---

   One element's KCL flow contributions: current [fv.(k)] leaves node
   [fn.(k)] into the element, for k < [flen], in emission order (voltage
   sources emit none: inside a supernode they cancel). *)
type flows = { fn : int array; fv : float array; mutable flen : int }

let flows_create cap = { fn = Array.make cap 0; fv = Array.make cap 0.0; flen = 0 }

let set_flow2 fl n1 n2 i =
  fl.fn.(0) <- n1;
  fl.fv.(0) <- i;
  fl.fn.(1) <- n2;
  fl.fv.(1) <- -.i;
  fl.flen <- 2

(* Fold one element's flows into the per-node current sums and the sums
   of magnitudes (the normalization scale), in emission order. *)
let add_flows cur mag fl =
  for k = 0 to fl.flen - 1 do
    let node = fl.fn.(k) and i = fl.fv.(k) in
    cur.(node) <- cur.(node) +. i;
    mag.(node) <- mag.(node) +. Float.abs i
  done

(* Element [i]'s flows into [fl] from node voltages [nv], and its
   operating point when it is a device. The full evaluator, the
   incremental session and the probe all run this one function; they
   differ in where the flows land and in [device]: a device's exact model
   inputs are written to [key] (w l m vd vg vs vb for a MOS, area vc vb
   ve for a BJT) and [device i key model] returns its operating point,
   [model key] being the model evaluation itself. *)
let elem_kernel (p : Problem.t) ~value ~(nv : float array) ~key ~device (fl : flows) i
    (e : Netlist.Circuit.element) =
  match e with
  | Netlist.Circuit.Resistor { n1; n2; value = ve; _ } ->
      set_flow2 fl n1 n2 ((nv.(n1) -. nv.(n2)) /. value ve);
      None
  | Netlist.Circuit.Capacitor _ | Netlist.Circuit.Vsource _ ->
      fl.flen <- 0;
      None
  | Netlist.Circuit.Isource { np; nn; dc; _ } ->
      set_flow2 fl np nn (value dc);
      None
  | Netlist.Circuit.Vccs { np; nn; ncp; ncn; gm; _ } ->
      set_flow2 fl np nn (value gm *. (nv.(ncp) -. nv.(ncn)));
      None
  | Netlist.Circuit.Mosfet { name; d; g; s; b; model; w; l; mult } -> begin
      match Devices.Registry.find_exn p.Problem.registry model with
      | Devices.Sig.Mos { eval; _ } ->
          key.(0) <- value w;
          key.(1) <- value l;
          key.(2) <- value mult;
          key.(3) <- nv.(d);
          key.(4) <- nv.(g);
          key.(5) <- nv.(s);
          key.(6) <- nv.(b);
          let oi =
            device i key (fun k ->
                Mna.Dc.Mos_op
                  (eval ~w:k.(0) ~l:k.(1) ~m:k.(2) ~vd:k.(3) ~vg:k.(4) ~vs:k.(5) ~vb:k.(6)))
          in
          (match oi with
          | Mna.Dc.Mos_op op ->
              let open Devices.Sig in
              fl.fn.(0) <- d;
              fl.fv.(0) <- op.id_;
              fl.fn.(1) <- s;
              fl.fv.(1) <- -.op.id_;
              fl.fn.(2) <- b;
              fl.fv.(2) <- op.ibd_ +. op.ibs_;
              fl.fn.(3) <- d;
              fl.fv.(3) <- -.op.ibd_;
              fl.fn.(4) <- s;
              fl.fv.(4) <- -.op.ibs_;
              fl.flen <- 5
          | Mna.Dc.Bjt_op _ -> assert false);
          Some oi
      | Devices.Sig.Bjt _ -> failwith (name ^ ": MOS element with BJT model")
    end
  | Netlist.Circuit.Bjt { name; c; b; e = ne; model; area } -> begin
      match Devices.Registry.find_exn p.Problem.registry model with
      | Devices.Sig.Bjt { eval; _ } ->
          key.(0) <- value area;
          key.(1) <- nv.(c);
          key.(2) <- nv.(b);
          key.(3) <- nv.(ne);
          let oi =
            device i key (fun k -> Mna.Dc.Bjt_op (eval ~area:k.(0) ~vc:k.(1) ~vb:k.(2) ~ve:k.(3)))
          in
          (match oi with
          | Mna.Dc.Bjt_op op ->
              let open Devices.Sig in
              fl.fn.(0) <- c;
              fl.fv.(0) <- op.ic;
              fl.fn.(1) <- b;
              fl.fv.(1) <- op.ib;
              fl.fn.(2) <- ne;
              fl.fv.(2) <- -.(op.ic +. op.ib);
              fl.flen <- 3
          | Mna.Dc.Mos_op _ -> assert false);
          Some oi
      | Devices.Sig.Mos _ -> failwith (name ^ ": BJT element with MOS model")
    end
  | Netlist.Circuit.Inductor { name; _ }
  | Netlist.Circuit.Vcvs { name; _ }
  | Netlist.Circuit.Cccs { name; _ }
  | Netlist.Circuit.Ccvs { name; _ } ->
      failwith (name ^ ": unsupported element in bias network")

(* --- KCL currents over the bias network. ---

   [sweep_bias] accumulates, per node, the sum of currents leaving the
   node into elements and the sum of magnitudes. Device operating points
   fall out of the same sweep; the full path calls the models directly. *)

let sweep_bias (p : Problem.t) (st : State.t) ~want_ops =
  let env = value_env p st in
  let value e = Netlist.Expr.eval env e in
  let nv = node_voltages p st in
  let n = Array.length nv in
  let cur = Array.make n 0.0 in
  let mag = Array.make n 0.0 in
  let ops = ref [] in
  let fl = flows_create 5 and key = Array.make 7 0.0 in
  Array.iteri
    (fun i e ->
      let op = elem_kernel p ~value ~nv ~key ~device:(fun _ k model -> model k) fl i e in
      add_flows cur mag fl;
      match op with
      | Some op when want_ops -> ops := (Netlist.Circuit.element_name e, op) :: !ops
      | Some _ | None -> ())
    p.Problem.bias.Netlist.Circuit.elements;
  (nv, cur, mag, List.rev !ops)

(* In-place variant shared with the incremental session, which folds into
   arrays preallocated in its arena instead of allocating per evaluation.
   Same accumulation order either way. *)
let group_residuals_into (p : Problem.t) cur mag residuals scale =
  let tl = p.Problem.tl in
  Array.fill residuals 0 (Array.length residuals) 0.0;
  Array.fill scale 0 (Array.length scale) 0.0;
  Array.iteri
    (fun k members ->
      List.iter
        (fun node ->
          residuals.(k) <- residuals.(k) +. cur.(node);
          scale.(k) <- scale.(k) +. mag.(node))
        members)
    tl.Treelink.members

let group_residuals (p : Problem.t) cur mag =
  let tl = p.Problem.tl in
  let residuals = Array.make tl.Treelink.n_free 0.0 in
  let scale = Array.make tl.Treelink.n_free 0.0 in
  group_residuals_into p cur mag residuals scale;
  (residuals, scale)

let bias_point p st =
  let nv, cur, mag, ops = sweep_bias p st ~want_ops:true in
  let residuals, res_scale = group_residuals p cur mag in
  { node_v = nv; ops; residuals; res_scale; node_leaving = cur }

let residuals_quick p st =
  let _, cur, mag, _ = sweep_bias p st ~want_ops:false in
  let residuals, _ = group_residuals p cur mag in
  residuals

(* --- Measurements over the AWE circuits. --- *)

type measured = {
  bias : bias_point;
  roms : (string * (Awe.Rom.t, string) result) list;
  spec_values : (string * float option) list;
}

(* Active area of the circuit under design, reported in square microns:
   W*L*m per MOS plus a nominal per-unit-area footprint for BJTs. *)
let bjt_unit_area_um2 = 400.0

let active_area_um2 (p : Problem.t) (st : State.t) =
  let env = value_env p st in
  let value e = Netlist.Expr.eval env e in
  Array.fold_left
    (fun acc (e : Netlist.Circuit.element) ->
      match e with
      | Netlist.Circuit.Mosfet { w; l; mult; _ } ->
          acc +. (value w *. value l *. value mult *. 1e12)
      | Netlist.Circuit.Bjt { area; _ } -> acc +. (value area *. bjt_unit_area_um2)
      | Netlist.Circuit.Resistor _ | Netlist.Circuit.Capacitor _ | Netlist.Circuit.Inductor _
      | Netlist.Circuit.Vsource _ | Netlist.Circuit.Isource _ | Netlist.Circuit.Vcvs _
      | Netlist.Circuit.Vccs _ | Netlist.Circuit.Cccs _ | Netlist.Circuit.Ccvs _ ->
          acc)
    0.0 p.Problem.bias.Netlist.Circuit.elements

(* Static power: total dissipation over the bias network, which equals the
   supply-delivered power once KCL holds. [nv]/[ops] are taken apart from
   the bias point so the incremental session can pass its cached slices. *)
let static_power_parts (p : Problem.t) (st : State.t) ~(nv : float array)
    ~(ops : (string * Mna.Dc.op_info) list) =
  let env = value_env p st in
  let value e = Netlist.Expr.eval env e in
  Array.fold_left
    (fun acc (e : Netlist.Circuit.element) ->
      match e with
      | Netlist.Circuit.Resistor { n1; n2; value = ve; _ } ->
          let dv = nv.(n1) -. nv.(n2) in
          acc +. (dv *. dv /. value ve)
      | Netlist.Circuit.Mosfet { name; d; s; _ } -> begin
          match List.assoc_opt name ops with
          | Some (Mna.Dc.Mos_op o) -> acc +. Float.abs (o.Devices.Sig.id_ *. (nv.(d) -. nv.(s)))
          | Some (Mna.Dc.Bjt_op _) | None -> acc
        end
      | Netlist.Circuit.Bjt { name; c; b; e = ne; _ } -> begin
          match List.assoc_opt name ops with
          | Some (Mna.Dc.Bjt_op o) ->
              acc
              +. Float.abs (o.Devices.Sig.ic *. (nv.(c) -. nv.(ne)))
              +. Float.abs (o.Devices.Sig.ib *. (nv.(b) -. nv.(ne)))
          | Some (Mna.Dc.Mos_op _) | None -> acc
        end
      | Netlist.Circuit.Isource { np; nn; dc; _ } ->
          acc +. Float.abs (value dc *. (nv.(np) -. nv.(nn)))
      | Netlist.Circuit.Capacitor _ | Netlist.Circuit.Inductor _ | Netlist.Circuit.Vsource _
      | Netlist.Circuit.Vcvs _ | Netlist.Circuit.Vccs _ | Netlist.Circuit.Cccs _
      | Netlist.Circuit.Ccvs _ ->
          acc)
    0.0 p.Problem.bias.Netlist.Circuit.elements

(* --- The jig-ROM builder. --- *)

(* Every tf of [jig] failing with one message (a failed stamp, say). *)
let jig_failed (jig : Problem.jig) m =
  List.map (fun (tfname, _) -> (tfname, Error m)) jig.Problem.tfs

(* The exact fit: [Rom.build_with]'s default order. *)
let exact_qmax = 6

(* Stamp [jig] with [stamp] and fit its ROM list through a fresh
   factorization: per tf, its excitation and output selector, the
   2*qmax + 2 moments of the fit, then the Padé order descent from
   [qmax]. A failed stamp or factorization fails every tf of the jig;
   any other failure is recorded against its tf alone. The exact and
   probe paths differ only in how they stamp and in [qmax]. *)
let jig_fit (jig : Problem.jig) ~stamp ~qmax =
  match stamp () with
  | exception Failure m -> jig_failed jig m
  | lin -> (
      match Awe.Moments.factor lin with
      | exception La.Lu.Singular _ -> jig_failed jig "singular AWE system"
      | fac ->
          List.map
            (fun (tfname, (tf : Problem.tf)) ->
              let rom =
                try
                  let b = Mna.Linearize.excitation_of lin ~src:tf.src in
                  let sel = Mna.Linearize.output_vector lin ~pos:tf.out_pos ~neg:tf.out_neg in
                  Awe.Rom.of_moments ~qmax
                    (Awe.Moments.compute_with fac ~b ~sel ~count:((2 * qmax) + 2))
                with
                | Failure m -> Error m
                | La.Lu.Singular _ -> Error "singular AWE system"
              in
              (tfname, rom))
            jig.Problem.tfs)

(* The exact ROM list of [jig], stamped fresh. *)
let jig_roms_exact ~value ~ops (jig : Problem.jig) =
  jig_fit jig ~qmax:exact_qmax ~stamp:(fun () ->
      Mna.Linearize.build ~value ~ops jig.Problem.jig_circuit)

let build_roms (p : Problem.t) (st : State.t) (bp : bias_point) =
  let env = value_env p st in
  let value e = Netlist.Expr.eval env e in
  let ops name = List.assoc_opt name bp.ops in
  List.concat_map (jig_roms_exact ~value ~ops) p.Problem.jigs

let rom_of roms tfname =
  match List.assoc_opt tfname roms with
  | Some (Ok r) -> r
  | Some (Error m) -> raise (Measurement_failed (tfname ^ ": " ^ m))
  | None -> raise (Measurement_failed ("unknown transfer function " ^ tfname))

(* --- Large-signal and noise measurements over a jig circuit. --- *)

let find_tf_jig (p : Problem.t) tfname =
  let found =
    List.find_map
      (fun (j : Problem.jig) ->
        Option.map (fun ports -> (j, ports)) (List.assoc_opt tfname j.Problem.tfs))
      p.Problem.jigs
  in
  match found with
  | Some jp -> jp
  | None -> raise (Measurement_failed ("unknown transfer function " ^ tfname))

(* Step-stimulus transient over the jig owning [tf]: the source the
   transfer function names steps by [vstep] at tstop/10, from whatever dc
   value the state assigns it. Shared by the in-loop spec functions
   (coarse [dtloop] budget) and by [Verify] (exact [dt]): both therefore
   agree on the stimulus shape and onset and differ only in step size. *)
let transient_response (p : Problem.t) ~value ~tf ~vstep ~tstop ~dt =
  let j, ports = find_tf_jig p tf in
  let src = ports.Problem.src in
  let v0 =
    match Netlist.Circuit.find_element j.Problem.jig_circuit src with
    | Netlist.Circuit.Vsource { dc; _ } | Netlist.Circuit.Isource { dc; _ } -> value dc
    | Netlist.Circuit.Resistor _ | Netlist.Circuit.Capacitor _ | Netlist.Circuit.Inductor _
    | Netlist.Circuit.Vcvs _ | Netlist.Circuit.Vccs _ | Netlist.Circuit.Cccs _
    | Netlist.Circuit.Ccvs _ | Netlist.Circuit.Mosfet _ | Netlist.Circuit.Bjt _ ->
        0.0
    | exception Not_found -> 0.0
  in
  let t_step = tstop /. 10.0 in
  let stim = [ (src, fun t -> if t >= t_step then v0 +. vstep else v0) ] in
  match
    Mna.Tran.simulate ~value ~registry:p.Problem.registry ~tstop ~dt ~stimulus:stim
      j.Problem.jig_circuit
  with
  | Error e -> raise (Measurement_failed (tf ^ ": " ^ e))
  | Ok r -> (r, ports, t_step)

(* Output-referred noise: one adjoint solve G^T y = sel gives the dc
   transfer from every noise-current injection site to the output, and
   white sources then sum as i_n^2 (y+ - y-)^2. Sources modeled: resistor
   thermal 4kT/R, MOS channel thermal (8/3)kT*gm, BJT shot 2q|Ic| and
   2q|Ib|. The result is the output noise density in V^2/Hz at dc, which
   the [noise_out_uv] spec function integrates over the first-order
   equivalent noise bandwidth (pi/2 times the -3dB bandwidth). *)
let kt_300 = 1.380649e-23 *. 300.0
let q_electron = 1.602176634e-19

let output_noise_v2_per_hz (lin : Mna.Linearize.t) ~value ~ops ~sel =
  let idx = lin.Mna.Linearize.idx in
  let lu =
    try La.Lu.factor lin.Mna.Linearize.g
    with La.Lu.Singular _ -> raise (Measurement_failed "noise: singular system")
  in
  let y = La.Lu.solve_transposed lu sel in
  let yv node =
    if node = 0 then 0.0
    else
      let r = Mna.Sysmat.node_row idx node in
      if r < 0 then 0.0 else y.(r)
  in
  Array.fold_left
    (fun acc (e : Netlist.Circuit.element) ->
      match e with
      | Netlist.Circuit.Resistor { n1; n2; value = ve; _ } ->
          let r = value ve in
          if r > 0.0 then begin
            let g = yv n1 -. yv n2 in
            acc +. (4.0 *. kt_300 /. r *. (g *. g))
          end
          else acc
      | Netlist.Circuit.Mosfet { name; d; s; _ } -> begin
          match ops name with
          | Some (Mna.Dc.Mos_op o) ->
              let g = yv d -. yv s in
              acc +. (8.0 /. 3.0 *. kt_300 *. Float.max 0.0 o.Devices.Sig.gm *. (g *. g))
          | Some (Mna.Dc.Bjt_op _) | None -> acc
        end
      | Netlist.Circuit.Bjt { name; c; b; e = ne; _ } -> begin
          match ops name with
          | Some (Mna.Dc.Bjt_op o) ->
              let gc = yv c -. yv ne in
              let gb = yv b -. yv ne in
              acc
              +. (2.0 *. q_electron *. Float.abs o.Devices.Sig.ic *. (gc *. gc))
              +. (2.0 *. q_electron *. Float.abs o.Devices.Sig.ib *. (gb *. gb))
          | Some (Mna.Dc.Mos_op _) | None -> acc
        end
      | Netlist.Circuit.Capacitor _ | Netlist.Circuit.Inductor _ | Netlist.Circuit.Vsource _
      | Netlist.Circuit.Isource _ | Netlist.Circuit.Vcvs _ | Netlist.Circuit.Vccs _
      | Netlist.Circuit.Cccs _ | Netlist.Circuit.Ccvs _ ->
          acc)
    0.0 idx.Mna.Sysmat.circuit.Netlist.Circuit.elements

(* One remembered in-loop step response: [w_tf]'s at the user variables
   [w_key] (a [Problem.user_slice]). *)
type wave_slot = { w_tf : string; w_key : float array; w_wave : (Spec.wave, string) result }

(* The in-loop backend of [Spec.eval]: device references read the
   relaxed-dc operating points, transfer-function measurements the AWE
   models, and step responses the coarse in-loop transient.

   The backend is built over a mutable context instead of capturing a
   bias point directly: the closures read whichever state / operating
   points / ROM list the context currently holds. The full evaluator fills
   a fresh context per measurement; the incremental session allocates one
   context and one backend at [Incr.create] and repoints the fields —
   the arithmetic either way is identical. *)
type spec_ctx = {
  mutable cx_st : State.t;
  mutable cx_nv : float array;  (* bias node voltages *)
  mutable cx_ops : (string * Mna.Dc.op_info) list;
  mutable cx_node_leaving : float array;
  mutable cx_roms : (string * (Awe.Rom.t, string) result) list;
  cx_waves : wave_slot option array;
      (* in-loop transients, failures included, keyed on the tf and the
         state's [Problem.user_slice] bits — all a step response reads.
         [slew_rate] and [settle] of one tf read one simulation, and the
         incremental session's context, which outlives every repoint,
         serves a user point the anneal revisits (an undone move, a
         node-voltage or Newton move) without simulating it again. *)
  mutable cx_waves_next : int;  (* round-robin slot to overwrite *)
}

(* Slots of the in-loop transient memo: the anneal's revisits mostly
   return within a few user-variable moves. *)
let wave_memo_slots = 8

(* The step response of [tf] under its jig's .tran card at step [dt]. *)
let step_wave (p : Problem.t) ~value (tf : Spec.tf) ~dt =
  match tf.Spec.tf_tran with
  | None -> raise (Measurement_failed (tf.Spec.tf_name ^ ": owning jig has no .tran card"))
  | Some tc ->
      let r, ports, t_step =
        transient_response p ~value ~tf:tf.Spec.tf_name ~vstep:tc.Netlist.Ast.tr_vstep
          ~tstop:tc.Netlist.Ast.tr_tstop ~dt:(dt tc)
      in
      let v = Mna.Tran.waveform_of r ~pos:ports.Problem.out_pos ~neg:ports.Problem.out_neg in
      { Spec.times = r.Mna.Tran.times; v; t_step; t_stop = tc.Netlist.Ast.tr_tstop }

let spec_backend (p : Problem.t) (cx : spec_ctx) =
  let base = value_env_get p (fun () -> cx.cx_st) in
  let value e = Netlist.Expr.eval base e in
  let rom (tf : Spec.tf) = rom_of cx.cx_roms tf.Spec.tf_name in
  (* The in-loop step size is the coarse [dtloop] when declared, else the
     exact [dt] (Verify always re-measures at the exact [dt]). Simulated
     once per tf and user point held in [cx_waves], failure included. *)
  let step (tf : Spec.tf) =
    let name = tf.Spec.tf_name and values = cx.cx_st.State.values in
    let seen = function
      | Some s when String.equal s.w_tf name && Problem.same_user_bits s.w_key values ->
          Some s.w_wave
      | Some _ | None -> None
    in
    let w =
      match Array.find_map seen cx.cx_waves with
      | Some w -> w
      | None ->
          let dt tc = Option.value tc.Netlist.Ast.tr_dtloop ~default:tc.Netlist.Ast.tr_dt in
          let w = try Ok (step_wave p ~value tf ~dt) with Measurement_failed m -> Error m in
          cx.cx_waves.(cx.cx_waves_next) <-
            Some { w_tf = name; w_key = Problem.user_slice p values; w_wave = w };
          cx.cx_waves_next <- (cx.cx_waves_next + 1) mod Array.length cx.cx_waves;
          w
    in
    match w with Ok w -> w | Error m -> raise (Measurement_failed m)
  in
  let noise_density (tf : Spec.tf) =
    let j = List.nth p.Problem.jigs tf.Spec.tf_jig and ports = tf.Spec.tf_ports in
    let ops n = List.assoc_opt n cx.cx_ops in
    match Mna.Linearize.build ~value ~ops j.Problem.jig_circuit with
    | exception Failure m -> raise (Measurement_failed (tf.Spec.tf_name ^ ": " ^ m))
    | lin ->
        let sel =
          Mna.Linearize.output_vector lin ~pos:ports.Problem.out_pos ~neg:ports.Problem.out_neg
        in
        output_noise_v2_per_hz lin ~value ~ops ~sel
  in
  {
    Spec.op =
      (fun d ->
        match List.assoc_opt d.Spec.dev_name cx.cx_ops with
        | Some op -> op
        | None -> raise (Measurement_failed ("no operating point for " ^ d.Spec.dev_name)));
    dc_gain = (fun tf -> Awe.Rom.dc_gain (rom tf));
    ugf = (fun tf -> Awe.Rom.unity_gain_freq (rom tf));
    pm = (fun tf -> Awe.Rom.phase_margin (rom tf));
    gain_at = (fun tf f -> Awe.Rom.magnitude_at (rom tf) ~f);
    bw3db = (fun tf -> Awe.Rom.bandwidth_3db (rom tf));
    rom = (fun tf -> Ok (rom tf));
    step;
    noise_density;
    area = (fun () -> active_area_um2 p cx.cx_st);
    power = (fun () -> static_power_parts p cx.cx_st ~nv:cx.cx_nv ~ops:cx.cx_ops);
    (* by KCL the source carries minus the other currents leaving its +
       node (approximate if several sources share the node) *)
    supply_current = (fun src -> cx.cx_node_leaving.(src.Spec.vs_np));
  }

let spec_ctx (st : State.t) (bp : bias_point) roms =
  {
    cx_st = st;
    cx_nv = bp.node_v;
    cx_ops = bp.ops;
    cx_node_leaving = bp.node_leaving;
    cx_roms = roms;
    cx_waves = Array.make wave_memo_slots None;
    cx_waves_next = 0;
  }

(* One spec in a context: failures and non-finite results both report as
   "unmeasurable". Shared verbatim with the incremental path. *)
let measure_spec b (cx : spec_ctx) (s : Problem.spec) =
  let v =
    try Some (Spec.eval b cx.cx_st s.Problem.expr) with
    | Measurement_failed _ | Spec.Failed _ | Netlist.Expr.Eval_error _ -> None
  in
  match v with Some x when not (Float.is_finite x) -> None | other -> other

(* Corner robustness rows: re-measure the named specs with the registry
   skewed to each compile-resolved corner. Corners evaluate sequentially
   in [corner_regs] order with the full (non-incremental) evaluator, so
   the values are a deterministic function of (p, st) alone — both the
   full and the incremental cost path call this identically, which is what
   keeps jobs=1 and jobs=N anneals bit-identical. *)
let corner_spec_values (p : Problem.t) (st : State.t) =
  List.concat_map
    (fun (cname, reg) ->
      let rows =
        List.filter (fun (s : Problem.spec) -> s.Problem.spec_corner = Some cname) p.Problem.specs
      in
      try
        let pc = { p with Problem.registry = reg } in
        let bp = bias_point pc st in
        let cx = spec_ctx st bp (build_roms pc st bp) in
        let b = spec_backend pc cx in
        List.map (fun (s : Problem.spec) -> (s.Problem.spec_name, measure_spec b cx s)) rows
      with Failure _ | Not_found | Measurement_failed _ ->
        List.map (fun (s : Problem.spec) -> (s.Problem.spec_name, None)) rows)
    p.Problem.corner_regs

let measure (p : Problem.t) (st : State.t) =
  let bp = bias_point p st in
  let roms = build_roms p st bp in
  let cx = spec_ctx st bp roms in
  let b = spec_backend p cx in
  let corner_vals = corner_spec_values p st in
  let spec_values =
    List.map
      (fun (s : Problem.spec) ->
        let v =
          match s.Problem.spec_corner with
          | None -> measure_spec b cx s
          | Some _ -> (
              match List.assoc_opt s.Problem.spec_name corner_vals with
              | Some v -> v
              | None -> None)
        in
        (s.Problem.spec_name, v))
      p.Problem.specs
  in
  { bias = bp; roms; spec_values }

(* --- Cost assembly (paper eq. (5)). --- *)

(* Penalty charged for a failed measurement: several times worse than a
   "bad" outcome so the annealer backs away from degenerate regions. *)
let failed_measurement_penalty = 5.0

let cost_of_spec_values (p : Problem.t) spec_values =
  List.fold_left
    (fun (obj, perf) (s : Problem.spec) ->
      let v = match List.assoc_opt s.spec_name spec_values with Some v -> v | None -> None in
      let normalized =
        match v with
        | Some value -> (s.good -. value) /. (s.good -. s.bad)
        | None -> failed_measurement_penalty
      in
      match s.kind with
      | Netlist.Ast.Objective_max | Netlist.Ast.Objective_min ->
          (* Exceeding "good" keeps paying, but boundedly: without the
             clamp the annealer can ride a measurement artifact (e.g. a
             barely-valid ROM reporting absurd bandwidth) to a bottomless
             objective that drowns every penalty term. *)
          (obj +. Float.max normalized (-2.0), perf)
      | Netlist.Ast.Constraint_ge | Netlist.Ast.Constraint_le ->
          (obj, perf +. Float.max 0.0 normalized))
    (0.0, 0.0) p.Problem.specs

let spec_terms (p : Problem.t) (m : measured) = cost_of_spec_values p m.spec_values

(* Region-of-operation penalties (C_dev): saturation margin for MOS devices
   and forward-active margin for BJTs, unless overridden by .devregion. *)
let sat_margin = 0.03

let dev_terms (p : Problem.t) (m : measured) =
  List.fold_left
    (fun acc (name, op) ->
      let req =
        Option.value ~default:Netlist.Ast.Region_sat (List.assoc_opt name p.Problem.regions)
      in
      match (req, op) with
      | Netlist.Ast.Region_any, (Mna.Dc.Mos_op _ | Mna.Dc.Bjt_op _) -> acc
      | Netlist.Ast.Region_sat, Mna.Dc.Mos_op o ->
          (* "on" uses the raw overdrive so a hard-off device pays in
             proportion to how far below threshold its gate sits. *)
          let on = Float.max 0.0 (0.05 -. o.Devices.Sig.vgst_raw) in
          let sat =
            Float.max 0.0 (o.Devices.Sig.vdsat +. sat_margin -. o.Devices.Sig.vds_mag)
          in
          acc +. on +. sat
      | Netlist.Ast.Region_linear, Mna.Dc.Mos_op o ->
          let on = Float.max 0.0 (0.05 -. o.Devices.Sig.vgst_raw) in
          let lin =
            Float.max 0.0 (o.Devices.Sig.vds_mag -. o.Devices.Sig.vdsat +. sat_margin)
          in
          acc +. on +. lin
      | Netlist.Ast.Region_off, Mna.Dc.Mos_op o ->
          acc +. Float.max 0.0 (o.Devices.Sig.vgst_raw +. 0.05)
      | Netlist.Ast.Region_sat, Mna.Dc.Bjt_op o ->
          (* forward active: vbe >= ~0.55, vbc <= ~0.2 *)
          let on = Float.max 0.0 (0.55 -. o.Devices.Sig.vbe_f) in
          let fwd =
            match o.Devices.Sig.bjt_region with
            | Devices.Sig.Linear -> 0.5 (* saturated *)
            | Devices.Sig.Off | Devices.Sig.Subthreshold | Devices.Sig.Saturation -> 0.0
          in
          acc +. on +. fwd
      | (Netlist.Ast.Region_linear | Netlist.Ast.Region_off), Mna.Dc.Bjt_op o ->
          acc +. Float.max 0.0 (o.Devices.Sig.vbe_f -. 0.4))
    0.0 m.bias.ops

(* Relaxed-dc penalties (C_dc): relative KCL violation per free variable. *)
let dc_tau_rel = 1e-6

let dc_terms (m : measured) =
  let acc = ref 0.0 in
  Array.iteri
    (fun k r ->
      let scale = m.bias.res_scale.(k) +. 1e-9 in
      let rel = Float.abs r /. scale in
      acc := !acc +. Float.max 0.0 (rel -. dc_tau_rel))
    m.bias.residuals;
  !acc

let raw_terms p _st m =
  let obj, perf = spec_terms p m in
  let dev = dev_terms p m in
  let dc = dc_terms m in
  (obj, perf, dev, dc)

type breakdown = {
  c_obj : float;
  c_perf : float;
  c_dev : float;
  c_dc : float;
  total : float;
  measured : measured;
}

(* The final fold from a [measured] to the weighted breakdown — one code
   path, used identically by the full and the incremental evaluator, so
   that equal inputs give bit-equal totals. *)
let breakdown_of (p : Problem.t) (w : Weights.t) (st : State.t) (m : measured) =
  let obj, perf, dev, dc = raw_terms p st m in
  let c_obj = obj in
  let c_perf = w.Weights.w_perf *. perf in
  let c_dev = w.Weights.w_dev *. dev in
  let c_dc = w.Weights.w_dc *. dc in
  { c_obj; c_perf; c_dev; c_dc; total = c_obj +. c_perf +. c_dev +. c_dc; measured = m }

let cost (p : Problem.t) (w : Weights.t) (st : State.t) = breakdown_of p w st (measure p st)

let cost_scalar p w st = (cost p w st).total

(* ------------------------------------------------------------------ *)
(* Incremental move-scoped evaluation                                  *)
(* ------------------------------------------------------------------ *)

(* A session walks the compiled dependency graph (Problem.deps) to
   re-evaluate only the slice of the cost function a move touched, while
   guaranteeing bit-identical totals to the full [cost] above:

   - per-element KCL flow contributions, computed by the full
     evaluator's own [elem_kernel], are cached and the node-current
     accumulators are re-folded from zero over ALL elements in element
     order, so the floating-point addition order matches [sweep_bias]
     exactly;
   - device operating points are memoized on their exact inputs (bitwise
     geometry + terminal voltages), and "did this element change" is a
     physical-identity test on the operating-point record — a clean
     element keeps the very record the cached AWE models were built from;
   - per-jig AWE ROM lists ([jig_roms_exact], as in the full path) are
     reused until a dependent operating point changes or a jig value
     expression evaluates to different bits;
   - per-spec measured values are reused unless the spec reads a rebuilt
     jig, a changed operating point, or a dirty variable; area/power/
     supply_current specs read the whole bias solution and are always
     re-measured;
   - the final fold to c_obj/c_perf/c_dev/c_dc runs [breakdown_of] on the
     reconstructed [measured] — the same code path as the full evaluator.

   A periodic resync (every [resync_every] incremental evaluations)
   recomputes the full cost and compares bitwise; a mismatch is counted
   and drops every cache. *)

module Incr = struct
  type class_row = {
    cr_class : string;
    cr_evals : int;
    cr_dirty_vars : int;
    cr_op_hits : int;
    cr_op_misses : int;
    cr_rom_builds : int;
    cr_rom_reuses : int;
  }

  type stats = {
    full_evals : int;
    incr_evals : int;
    dirty_vars : int;
    op_hits : int;
    op_misses : int;
    rom_builds : int;
    rom_reuses : int;
    spec_evals : int;
    spec_reuses : int;
    resyncs : int;
    resync_mismatches : int;
    probes : int;
    probe_rom_builds : int;
    probe_fallbacks : int;
    mom_reuses : int;
    mom_refreshes : int;
    dirty_hist : int array;
    by_class : class_row list;
  }

  type counters = {
    mutable k_evals : int;
    mutable k_dirty : int;
    mutable k_op_hits : int;
    mutable k_op_misses : int;
    mutable k_rom_builds : int;
    mutable k_rom_reuses : int;
  }

  type memo_slot = { key : float array; memo_op : Mna.Dc.op_info }

  (* Per-element arena slot. KCL contributions live in [fl], capacity
     fixed at create time — recomputing an element writes in place instead
     of allocating a tuple array per move. [kscratch] is the
     operating-point memo probe key, likewise reused; it is copied only on
     a memo miss. *)
  type elem_cache = {
    ec_name : string;
    fl : flows;
    mutable op : Mna.Dc.op_info option;
    memo : memo_slot option array;  (* tiny per-device operating-point memo *)
    mutable memo_next : int;
    kscratch : float array;  (* memo probe key: 7 for MOS, 4 for BJT *)
  }

  (* The session is the per-domain arena: every array below is allocated
     once in [create] and written in place on the hot path. The only
     steady-state allocations per evaluation are the [measured] record
     handed back across the API boundary (with defensive copies of the
     bias arrays) and whatever the device models themselves box. *)
  type session = {
    sp : Problem.t;
    dg : Problem.depgraph;
    resync_every : int;
    last_values : float array;
    mutable primed : bool;
    cur_st : State.t ref;  (* state the value environment reads *)
    venv : Netlist.Expr.env;  (* element-value env, built once *)
    spec_cx : spec_ctx;  (* mutable context behind [spec_b] *)
    spec_b : Spec.backend;  (* spec backend, built once *)
    nv : float array;  (* cached node voltages *)
    cur : float array;  (* cached per-node current sums *)
    mag : float array;  (* cached per-node |current| sums *)
    elems : elem_cache array;
    elem_changed : bool array;  (* scratch, per sync *)
    elem_dirty : bool array;  (* scratch, per sync *)
    node_seen : bool array;  (* scratch, per sync *)
    dirty_buf : int array;  (* scratch: dirty vars, ascending *)
    touched_buf : int array;  (* scratch: nodes visited this sync *)
    jig_valid : bool array;  (* persistent: cached ROM list is current *)
    jig_vals : float array array;  (* value-expression bits at last build *)
    jig_roms : (string * (Awe.Rom.t, string) result) list array;
    mutable roms_flat : (string * (Awe.Rom.t, string) result) list;
    mutable roms_flat_valid : bool;
    spec_valid : bool array;
    spec_cache : float option array;
    spec_screened : bool array;
        (* corner rows and transient-measured rows: the probe path serves
           these from the cache instead of re-simulating per candidate *)
    mutable spec_list : (string * float option) list;
    mutable spec_list_valid : bool;
    (* reverse maps derived from the per-spec dependency sets *)
    var_specs : int list array;
    elem_specs : int list array;
    jig_specs : int list array;
    residuals : float array;
    res_scale : float array;
    mutable ops_list : (string * Mna.Dc.op_info) list;  (* element order *)
    jig_plin : Mna.Linearize.t option array;
        (* per jig: the buffer probe candidates are restamped into *)
    (* Probe scratch: candidate screening writes here, never into the
       exact caches above, so an arbitrary number of probes can run
       between two exact evaluations without perturbing them. *)
    p_nv : float array;
    p_cur : float array;
    p_mag : float array;
    p_residuals : float array;
    p_res_scale : float array;
    p_elem_dirty : bool array;
    p_jig_dirty : bool array;
    p_spec_stale : bool array;
    p_ops : Mna.Dc.op_info option array;  (* probe op of dirty devices *)
    kflows : flows;  (* scratch: the element kernel's output for one element *)
    mutable dirty_accum : int;  (* dirty vars since the last cost eval *)
    mutable since_resync : int;
    mutable cls : string;  (* move class currently charged, for stats *)
    (* counters *)
    mutable c_full : int;
    mutable c_incr : int;
    mutable c_dirty : int;
    mutable c_op_hits : int;
    mutable c_op_misses : int;
    mutable c_rom_builds : int;
    mutable c_rom_reuses : int;
    mutable c_spec_evals : int;
    mutable c_spec_reuses : int;
    mutable c_resyncs : int;
    mutable c_mismatches : int;
    mutable c_probes : int;
    mutable c_probe_rom_builds : int;
    hist : int array;
    by_class : (string, counters) Hashtbl.t;
  }

  let default_resync = 1024

  let create ?(resync_every = default_resync) (p : Problem.t) =
    let dg = p.Problem.deps in
    let n_vars = State.n_vars p.Problem.state0 in
    let n_nodes = Array.length p.Problem.tl.Treelink.of_node in
    let n_elems = Array.length p.Problem.bias.Netlist.Circuit.elements in
    let n_jigs = List.length p.Problem.jigs in
    let n_specs = List.length p.Problem.specs in
    let elems =
      Array.map
        (fun (e : Netlist.Circuit.element) ->
          (* flow capacity / memo-key width by element kind *)
          let cap, kw =
            match e with
            | Netlist.Circuit.Mosfet _ -> (5, 7)
            | Netlist.Circuit.Bjt _ -> (3, 4)
            | Netlist.Circuit.Resistor _ | Netlist.Circuit.Isource _ | Netlist.Circuit.Vccs _ ->
                (2, 0)
            | _ -> (0, 0)
          in
          {
            ec_name = Netlist.Circuit.element_name e;
            fl = flows_create cap;
            op = None;
            (* 16 slots: batched probing evaluates up to a handful of
               candidate geometries per accepted move, and the confirm
               path then re-asks for the winner — a 4-slot memo thrashes
               under that access pattern where 16 keeps every candidate
               of a batch plus the accepted neighborhood resident. *)
            memo = Array.make (if kw > 0 then 16 else 0) None;
            memo_next = 0;
            kscratch = Array.make kw 0.0;
          })
        p.Problem.bias.Netlist.Circuit.elements
    in
    let var_specs = Array.make n_vars [] in
    let elem_specs = Array.make n_elems [] in
    let jig_specs = Array.make n_jigs [] in
    Array.iteri
      (fun si (sd : Problem.spec_deps) ->
        List.iter (fun v -> var_specs.(v) <- si :: var_specs.(v)) sd.Problem.sd_vars;
        List.iter (fun e -> elem_specs.(e) <- si :: elem_specs.(e)) sd.Problem.sd_elems;
        List.iter (fun j -> jig_specs.(j) <- si :: jig_specs.(j)) sd.Problem.sd_jigs)
      dg.Problem.dg_spec_deps;
    (* The value environment and the spec backend are built once here and
       read the current state through [cur_st] and [spec_cx] — no closure
       rebuilt per evaluation. *)
    let cur_st = ref p.Problem.state0 in
    let venv = value_env_get p (fun () -> !cur_st) in
    let spec_cx =
      {
        cx_st = p.Problem.state0;
        cx_nv = [||];
        cx_ops = [];
        cx_node_leaving = [||];
        cx_roms = [];
        cx_waves = Array.make wave_memo_slots None;
        cx_waves_next = 0;
      }
    in
    let spec_b = spec_backend p spec_cx in
    let spec_screened =
      Array.of_list
        (List.map
           (fun (s : Problem.spec) ->
             s.Problem.spec_corner <> None || Spec.uses_transient s.Problem.expr)
           p.Problem.specs)
    in
    {
      sp = p;
      dg;
      resync_every = Int.max 2 resync_every;
      last_values = Array.make n_vars Float.nan;
      primed = false;
      cur_st;
      venv;
      spec_cx;
      spec_b;
      nv = Array.make n_nodes 0.0;
      cur = Array.make n_nodes 0.0;
      mag = Array.make n_nodes 0.0;
      elems;
      elem_changed = Array.make n_elems false;
      elem_dirty = Array.make n_elems false;
      node_seen = Array.make n_nodes false;
      dirty_buf = Array.make n_vars 0;
      touched_buf = Array.make n_nodes 0;
      jig_valid = Array.make n_jigs false;
      jig_vals = Array.make n_jigs [||];
      jig_roms = Array.make n_jigs [];
      roms_flat = [];
      roms_flat_valid = false;
      spec_valid = Array.make n_specs false;
      spec_cache = Array.make n_specs None;
      spec_screened;
      spec_list = [];
      spec_list_valid = false;
      var_specs;
      elem_specs;
      jig_specs;
      residuals = Array.make p.Problem.tl.Treelink.n_free 0.0;
      res_scale = Array.make p.Problem.tl.Treelink.n_free 0.0;
      ops_list = [];
      jig_plin = Array.make n_jigs None;
      p_nv = Array.make n_nodes 0.0;
      p_cur = Array.make n_nodes 0.0;
      p_mag = Array.make n_nodes 0.0;
      p_residuals = Array.make p.Problem.tl.Treelink.n_free 0.0;
      p_res_scale = Array.make p.Problem.tl.Treelink.n_free 0.0;
      p_elem_dirty = Array.make n_elems false;
      p_jig_dirty = Array.make n_jigs false;
      p_spec_stale = Array.make n_specs false;
      p_ops = Array.make n_elems None;
      kflows = flows_create 5;
      dirty_accum = 0;
      since_resync = 0;
      cls = "";
      c_full = 0;
      c_incr = 0;
      c_dirty = 0;
      c_op_hits = 0;
      c_op_misses = 0;
      c_rom_builds = 0;
      c_rom_reuses = 0;
      c_spec_evals = 0;
      c_spec_reuses = 0;
      c_resyncs = 0;
      c_mismatches = 0;
      c_probes = 0;
      c_probe_rom_builds = 0;
      hist = Array.make 9 0;
      by_class = Hashtbl.create 8;
    }

  let set_class ss cls = ss.cls <- cls

  let invalidate ss = ss.primed <- false

  (* Return the session to its just-created state so one arena can serve
     a fresh restart: every cache is dropped and every counter zeroed, but
     no array is reallocated. A reset session is observationally identical
     to a fresh [create] — the cross-restart reuse [Core.Oblx.best_of]
     relies on for bit-identical results. *)
  let reset ss =
    ss.primed <- false;
    Array.fill ss.last_values 0 (Array.length ss.last_values) Float.nan;
    ss.cur_st := ss.sp.Problem.state0;
    ss.spec_cx.cx_st <- ss.sp.Problem.state0;
    ss.spec_cx.cx_nv <- [||];
    ss.spec_cx.cx_ops <- [];
    ss.spec_cx.cx_node_leaving <- [||];
    ss.spec_cx.cx_roms <- [];
    Array.fill ss.spec_cx.cx_waves 0 wave_memo_slots None;
    ss.spec_cx.cx_waves_next <- 0;
    Array.iter
      (fun ec ->
        ec.fl.flen <- 0;
        ec.op <- None;
        Array.fill ec.memo 0 (Array.length ec.memo) None;
        ec.memo_next <- 0)
      ss.elems;
    Array.fill ss.jig_valid 0 (Array.length ss.jig_valid) false;
    Array.fill ss.jig_vals 0 (Array.length ss.jig_vals) [||];
    Array.fill ss.jig_roms 0 (Array.length ss.jig_roms) [];
    ss.roms_flat <- [];
    ss.roms_flat_valid <- false;
    Array.fill ss.spec_valid 0 (Array.length ss.spec_valid) false;
    Array.fill ss.spec_cache 0 (Array.length ss.spec_cache) None;
    ss.spec_list <- [];
    ss.spec_list_valid <- false;
    ss.ops_list <- [];
    ss.dirty_accum <- 0;
    ss.since_resync <- 0;
    ss.cls <- "";
    ss.c_full <- 0;
    ss.c_incr <- 0;
    ss.c_dirty <- 0;
    ss.c_op_hits <- 0;
    ss.c_op_misses <- 0;
    ss.c_rom_builds <- 0;
    ss.c_rom_reuses <- 0;
    ss.c_spec_evals <- 0;
    ss.c_spec_reuses <- 0;
    ss.c_resyncs <- 0;
    ss.c_mismatches <- 0;
    ss.c_probes <- 0;
    ss.c_probe_rom_builds <- 0;
    Array.fill ss.hist 0 (Array.length ss.hist) 0;
    Hashtbl.reset ss.by_class

  let class_counters ss =
    match Hashtbl.find_opt ss.by_class ss.cls with
    | Some k -> k
    | None ->
        let k =
          {
            k_evals = 0;
            k_dirty = 0;
            k_op_hits = 0;
            k_op_misses = 0;
            k_rom_builds = 0;
            k_rom_reuses = 0;
          }
        in
        Hashtbl.add ss.by_class ss.cls k;
        k

  (* Bitwise float equality: the only change detector compatible with a
     bit-identity guarantee (0.0 vs -0.0 and NaN payloads matter). *)
  let feq_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

  let key_eq a b =
    Array.length a = Array.length b
    &&
    let rec go i = i >= Array.length a || (feq_bits a.(i) b.(i) && go (i + 1)) in
    go 0

  let memo_find ss ec key =
    let n = Array.length ec.memo in
    let rec go i =
      if i >= n then None
      else
        match ec.memo.(i) with
        | Some slot when key_eq slot.key key -> Some slot.memo_op
        | Some _ | None -> go (i + 1)
    in
    match go 0 with
    | Some op ->
        ss.c_op_hits <- ss.c_op_hits + 1;
        (class_counters ss).k_op_hits <- (class_counters ss).k_op_hits + 1;
        Some op
    | None ->
        ss.c_op_misses <- ss.c_op_misses + 1;
        (class_counters ss).k_op_misses <- (class_counters ss).k_op_misses + 1;
        None

  let memo_add ec key memo_op =
    if Array.length ec.memo > 0 then begin
      ec.memo.(ec.memo_next) <- Some { key; memo_op };
      ec.memo_next <- (ec.memo_next + 1) mod Array.length ec.memo
    end

  (* The session's device hook for [elem_kernel]: the operating point is
     served from the element's memo when its exact inputs were seen
     before, and evaluated (then memoized) otherwise. *)
  let memo_op ss i key model =
    let ec = ss.elems.(i) in
    match memo_find ss ec key with
    | Some op -> op
    | None ->
        let op = model key in
        memo_add ec (Array.copy key) op;
        op

  let flows_equal a b =
    a.flen = b.flen
    &&
    let rec go k =
      k >= a.flen || (a.fn.(k) = b.fn.(k) && feq_bits a.fv.(k) b.fv.(k) && go (k + 1))
    in
    go 0

  let flows_copy ~src ~dst =
    Array.blit src.fn 0 dst.fn 0 src.flen;
    Array.blit src.fv 0 dst.fv 0 src.flen;
    dst.flen <- src.flen

  (* Recompute one element through [elem_kernel] and keep the result when
     it is genuinely new: for a device, an operating point that is not
     physically the cached record (or [force]); otherwise, flows with new
     bits. Only then is the element marked changed. *)
  let recompute_elem ss ~force ~value ~device i (e : Netlist.Circuit.element) =
    let ec = ss.elems.(i) in
    let kf = ss.kflows in
    match elem_kernel ss.sp ~value ~nv:ss.nv ~key:ec.kscratch ~device kf i e with
    | None ->
        if not (flows_equal kf ec.fl) then begin
          flows_copy ~src:kf ~dst:ec.fl;
          ss.elem_changed.(i) <- true
        end
    | Some op ->
        let unchanged = match ec.op with Some o -> o == op | None -> false in
        if force || not unchanged then begin
          flows_copy ~src:kf ~dst:ec.fl;
          ec.op <- Some op;
          ss.elem_changed.(i) <- true
        end

  (* Re-check a jig's value expressions against the bits recorded when its
     ROM list was built; different bits drop the cached list. *)
  let check_jig_vals ss env j =
    if ss.jig_valid.(j) then begin
      let vals = ss.jig_vals.(j) in
      let same = ref (Array.length vals > 0 || ss.dg.Problem.dg_jig_exprs.(j) = []) in
      let k = ref 0 in
      List.iter
        (fun e ->
          let v = try Netlist.Expr.eval env e with _ -> Float.nan in
          if !k >= Array.length vals || not (feq_bits vals.(!k) v) then same := false;
          incr k)
        ss.dg.Problem.dg_jig_exprs.(j);
      if not !same then begin
        ss.jig_valid.(j) <- false;
        ss.roms_flat_valid <- false
      end
    end

  (* The dependency walk, one for the exact and the probe path: collect
     the variables whose bits differ from [last_values] into [dirty_buf]
     (ascending), recompute each node voltage they reach into [nv], and
     mark in [elem_dirty] every element on a node whose voltage changed
     bits and every element reading a dirty variable directly. [sync]
     passes the session's own arrays, [probe_cost] its probe scratch.
     Returns the number of dirty variables. *)
  let dirty_walk ss (st : State.t) ~nv ~elem_dirty =
    let ndirty = ref 0 in
    for v = 0 to Array.length ss.last_values - 1 do
      if not (feq_bits ss.last_values.(v) st.State.values.(v)) then begin
        ss.dirty_buf.(!ndirty) <- v;
        incr ndirty
      end
    done;
    (* dirty vars -> nodes: recompute, and only a node whose voltage
       actually changed bits dirties the elements on it *)
    let ntouched = ref 0 in
    for di = 0 to !ndirty - 1 do
      let v = ss.dirty_buf.(di) in
      List.iter
        (fun node ->
          if not ss.node_seen.(node) then begin
            ss.node_seen.(node) <- true;
            ss.touched_buf.(!ntouched) <- node;
            incr ntouched;
            let fresh = node_voltage_of ss.sp st ss.venv node in
            if not (feq_bits fresh nv.(node)) then begin
              nv.(node) <- fresh;
              List.iter (fun e -> elem_dirty.(e) <- true) ss.dg.Problem.dg_node_elems.(node)
            end
          end)
        ss.dg.Problem.dg_var_nodes.(v);
      List.iter (fun e -> elem_dirty.(e) <- true) ss.dg.Problem.dg_var_elems.(v)
    done;
    for k = 0 to !ntouched - 1 do
      ss.node_seen.(ss.touched_buf.(k)) <- false
    done;
    !ndirty

  (* Bring the bias slice (node voltages, element flows and operating
     points, KCL residuals) up to date with [st], marking dependent jigs
     and specs stale along the way. *)
  let sync ss (st : State.t) =
    let p = ss.sp in
    let n_vars = Array.length ss.last_values in
    let n_elems = Array.length ss.elems in
    try
      let force = not ss.primed in
      ss.cur_st := st;
      let env = ss.venv in
      let value e = Netlist.Expr.eval env e in
      Array.fill ss.elem_changed 0 n_elems false;
      Array.fill ss.elem_dirty 0 n_elems force;
      let ndirty =
        if force then begin
          Array.iteri (fun node _ -> ss.nv.(node) <- node_voltage_of p st env node) ss.nv;
          Array.fill ss.jig_valid 0 (Array.length ss.jig_valid) false;
          ss.roms_flat_valid <- false;
          Array.fill ss.spec_valid 0 (Array.length ss.spec_valid) false;
          n_vars
        end
        else dirty_walk ss st ~nv:ss.nv ~elem_dirty:ss.elem_dirty
      in
      ss.dirty_accum <- ss.dirty_accum + ndirty;
      (* Recompute dirty elements; [elem_changed] ends up true only where
         the contribution (or operating point) has genuinely new bits. *)
      let device = memo_op ss in
      Array.iteri
        (fun i e -> if ss.elem_dirty.(i) then recompute_elem ss ~force ~value ~device i e)
        p.Problem.bias.Netlist.Circuit.elements;
      let any_changed = force || Array.exists Fun.id ss.elem_changed in
      if any_changed then begin
        (* Re-fold the node-current accumulators from zero over all
           elements in element order: the same addition sequence as
           [sweep_bias], so clean totals keep their exact bits. *)
        Array.fill ss.cur 0 (Array.length ss.cur) 0.0;
        Array.fill ss.mag 0 (Array.length ss.mag) 0.0;
        Array.iter (fun ec -> add_flows ss.cur ss.mag ec.fl) ss.elems;
        group_residuals_into p ss.cur ss.mag ss.residuals ss.res_scale;
        let ops = ref [] in
        for i = n_elems - 1 downto 0 do
          match ss.elems.(i).op with
          | Some op -> ops := (ss.elems.(i).ec_name, op) :: !ops
          | None -> ()
        done;
        ss.ops_list <- !ops;
        (* changed elements invalidate dependent jigs and specs *)
        Array.iteri
          (fun i changed ->
            if changed then begin
              List.iter
                (fun j ->
                  ss.jig_valid.(j) <- false;
                  ss.roms_flat_valid <- false)
                ss.dg.Problem.dg_elem_jigs.(i);
              List.iter (fun s -> ss.spec_valid.(s) <- false) ss.elem_specs.(i)
            end)
          ss.elem_changed
      end;
      if not force then
        for di = 0 to ndirty - 1 do
          let v = ss.dirty_buf.(di) in
          List.iter (fun j -> check_jig_vals ss env j) ss.dg.Problem.dg_var_jigs.(v);
          List.iter (fun s -> ss.spec_valid.(s) <- false) ss.var_specs.(v)
        done;
      Array.blit st.State.values 0 ss.last_values 0 n_vars;
      ss.primed <- true
    with e ->
      ss.primed <- false;
      raise e

  let residuals_quick ss st =
    sync ss st;
    Array.copy ss.residuals

  let bias_view ss st =
    sync ss st;
    (ss.nv, ss.ops_list)

  let measure_with ss (st : State.t) =
    let p = ss.sp in
    sync ss st;
    let bp =
      {
        node_v = Array.copy ss.nv;
        ops = ss.ops_list;
        residuals = Array.copy ss.residuals;
        res_scale = Array.copy ss.res_scale;
        node_leaving = Array.copy ss.cur;
      }
    in
    (* Rebuild the ROM lists of stale jigs only; a rebuilt jig re-measures
       the specs that read it. *)
    let kk = class_counters ss in
    (if Array.exists (fun v -> not v) ss.jig_valid then begin
       let value e = Netlist.Expr.eval ss.venv e in
       let ops name = List.assoc_opt name bp.ops in
       List.iteri
         (fun j jig ->
           if not ss.jig_valid.(j) then begin
             ss.jig_roms.(j) <- jig_roms_exact ~value ~ops jig;
             ss.jig_vals.(j) <-
               Array.of_list
                 (List.map
                    (fun e -> try value e with _ -> Float.nan)
                    ss.dg.Problem.dg_jig_exprs.(j));
             ss.jig_valid.(j) <- true;
             ss.roms_flat_valid <- false;
             List.iter (fun s -> ss.spec_valid.(s) <- false) ss.jig_specs.(j);
             ss.c_rom_builds <- ss.c_rom_builds + 1;
             kk.k_rom_builds <- kk.k_rom_builds + 1
           end
           else begin
             ss.c_rom_reuses <- ss.c_rom_reuses + 1;
             kk.k_rom_reuses <- kk.k_rom_reuses + 1
           end)
         p.Problem.jigs
     end
     else begin
       let n = Array.length ss.jig_valid in
       ss.c_rom_reuses <- ss.c_rom_reuses + n;
       kk.k_rom_reuses <- kk.k_rom_reuses + n
     end);
    if not ss.roms_flat_valid then begin
      ss.roms_flat <- List.concat (Array.to_list ss.jig_roms);
      ss.roms_flat_valid <- true
    end;
    let roms = ss.roms_flat in
    (* Re-measure stale specs with the session's persistent backend — the
       same arithmetic as the backend the full evaluator builds, pointed
       at this evaluation's bias solution. *)
    let cx = ss.spec_cx in
    cx.cx_st <- st;
    cx.cx_nv <- bp.node_v;
    cx.cx_ops <- bp.ops;
    cx.cx_node_leaving <- bp.node_leaving;
    cx.cx_roms <- roms;
    (* Corner rows bypass the session caches entirely: the same full
       recompute the from-scratch evaluator does, so both paths agree bit
       for bit. (sd_always keeps them permanently stale below.) *)
    let corner_vals =
      if p.Problem.corner_regs = [] then [] else corner_spec_values p st
    in
    let spec_changed = ref (not ss.spec_list_valid) in
    List.iteri
      (fun i (s : Problem.spec) ->
        let sd = ss.dg.Problem.dg_spec_deps.(i) in
        if sd.Problem.sd_always || not ss.spec_valid.(i) then begin
          let v =
            match s.Problem.spec_corner with
            | None -> measure_spec ss.spec_b cx s
            | Some _ -> (
                match List.assoc_opt s.Problem.spec_name corner_vals with
                | Some v -> v
                | None -> None)
          in
          (match (ss.spec_cache.(i), v) with
          | Some a, Some b when feq_bits a b -> ()
          | None, None -> ()
          | _ -> spec_changed := true);
          ss.spec_cache.(i) <- v;
          ss.spec_valid.(i) <- true;
          ss.c_spec_evals <- ss.c_spec_evals + 1
        end
        else ss.c_spec_reuses <- ss.c_spec_reuses + 1)
      p.Problem.specs;
    (* The association list handed out is immutable, so it is shared
       across evaluations until some spec value changes bits. *)
    if !spec_changed then begin
      ss.spec_list <-
        List.mapi
          (fun i (s : Problem.spec) -> (s.Problem.spec_name, ss.spec_cache.(i)))
          p.Problem.specs;
      ss.spec_list_valid <- true
    end;
    { bias = bp; roms; spec_values = ss.spec_list }

  let cost ss (w : Weights.t) (st : State.t) =
    let was_primed = ss.primed in
    ss.dirty_accum <- 0;
    let m = measure_with ss st in
    let bd = breakdown_of ss.sp w st m in
    let kk = class_counters ss in
    kk.k_evals <- kk.k_evals + 1;
    kk.k_dirty <- kk.k_dirty + ss.dirty_accum;
    if was_primed then begin
      ss.c_incr <- ss.c_incr + 1;
      ss.c_dirty <- ss.c_dirty + ss.dirty_accum;
      ss.hist.(Int.min ss.dirty_accum (Array.length ss.hist - 1)) <-
        ss.hist.(Int.min ss.dirty_accum (Array.length ss.hist - 1)) + 1
    end
    else ss.c_full <- ss.c_full + 1;
    (* Periodic resync: recompute from scratch, compare bitwise, count
       and recover from any divergence. *)
    ss.since_resync <- ss.since_resync + 1;
    if was_primed && ss.since_resync >= ss.resync_every then begin
      ss.since_resync <- 0;
      ss.c_resyncs <- ss.c_resyncs + 1;
      let full = cost ss.sp w st in
      ss.c_full <- ss.c_full + 1;
      if
        not
          (feq_bits full.total bd.total && feq_bits full.c_obj bd.c_obj
          && feq_bits full.c_perf bd.c_perf && feq_bits full.c_dev bd.c_dev
          && feq_bits full.c_dc bd.c_dc)
      then begin
        ss.c_mismatches <- ss.c_mismatches + 1;
        ss.primed <- false;
        full
      end
      else bd
    end
    else bd

  let cost_scalar ss w st = (cost ss w st).total

  (* ---------------- candidate-move probe path ---------------- *)

  (* Probe ROMs fit at a reduced order: half the moments of the exact
     path is plenty to rank candidates, and the cost of the recurrence is
     linear in the moment count. *)
  let probe_qmax = 3

  (* Probe ROM list of one touched jig: the candidate is restamped into
     the session's probe buffer for that jig (built on its first use; the
     exact path never reads it) and fit at [probe_qmax]. *)
  let probe_jig_roms ss j (jig : Problem.jig) ~value ~ops =
    ss.c_probe_rom_builds <- ss.c_probe_rom_builds + 1;
    jig_fit jig ~qmax:probe_qmax ~stamp:(fun () ->
        match ss.jig_plin.(j) with
        | Some lin ->
            Mna.Linearize.restamp lin ~value ~ops jig.Problem.jig_circuit;
            lin
        | None ->
            let lin = Mna.Linearize.build ~value ~ops jig.Problem.jig_circuit in
            ss.jig_plin.(j) <- Some lin;
            lin)

  (* Screening cost of a candidate state: approximate by design (probe
     ROMs are fit at [probe_qmax], not the exact order), cheap by
     construction (only the slice a candidate touches is recomputed, into
     the p_* scratch arrays). Nothing the probe writes is read by the
     exact path: the only shared mutable structures it touches are the
     operating-point memo (pure function of key bits, so probe lookups
     and inserts only warm it for the confirm evaluation of whichever
     candidate wins), the kernel's flow scratch and the probe counters.
     The annealer uses this to rank candidates; the winner is confirmed
     through [cost], which alone feeds accepted state. *)
  let probe_cost ss (w : Weights.t) (st : State.t) =
    if not ss.primed then (cost ss w st).total
    else begin
      ss.c_probes <- ss.c_probes + 1;
      let p = ss.sp in
      let n_nodes = Array.length ss.nv in
      let n_elems = Array.length ss.elems in
      ss.cur_st := st;
      let env = ss.venv in
      let value e = Netlist.Expr.eval env e in
      Array.fill ss.p_elem_dirty 0 n_elems false;
      Array.fill ss.p_jig_dirty 0 (Array.length ss.p_jig_dirty) false;
      Array.fill ss.p_spec_stale 0 (Array.length ss.p_spec_stale) false;
      Array.fill ss.p_ops 0 n_elems None;
      Array.blit ss.nv 0 ss.p_nv 0 n_nodes;
      (* candidate-dirty variables, and the nodes/elements/jigs/specs they
         reach: [sync]'s walk, on probe scratch *)
      let ndirty = dirty_walk ss st ~nv:ss.p_nv ~elem_dirty:ss.p_elem_dirty in
      for di = 0 to ndirty - 1 do
        let v = ss.dirty_buf.(di) in
        List.iter (fun j -> ss.p_jig_dirty.(j) <- true) ss.dg.Problem.dg_var_jigs.(v);
        List.iter (fun s -> ss.p_spec_stale.(s) <- true) ss.var_specs.(v)
      done;
      (* Flows: start from the accepted accumulators and retract/re-add
         only the dirty elements. The fold order differs from the exact
         path's from-zero re-fold — screening tolerates the last-bit
         difference, confirmation does not go through here. *)
      Array.blit ss.cur 0 ss.p_cur 0 n_nodes;
      Array.blit ss.mag 0 ss.p_mag 0 n_nodes;
      let ops_changed = ref false in
      let device = memo_op ss in
      Array.iteri
        (fun i e ->
          if ss.p_elem_dirty.(i) then begin
            let ec = ss.elems.(i) in
            for k = 0 to ec.fl.flen - 1 do
              let node = ec.fl.fn.(k) and iv = ec.fl.fv.(k) in
              ss.p_cur.(node) <- ss.p_cur.(node) -. iv;
              ss.p_mag.(node) <- ss.p_mag.(node) -. Float.abs iv
            done;
            let op = elem_kernel p ~value ~nv:ss.p_nv ~key:ec.kscratch ~device ss.kflows i e in
            add_flows ss.p_cur ss.p_mag ss.kflows;
            ss.p_ops.(i) <- op;
            (match op with
            | Some oi -> (
                match ec.op with Some o when o == oi -> () | Some _ | None -> ops_changed := true)
            | None -> ());
            List.iter (fun j -> ss.p_jig_dirty.(j) <- true) ss.dg.Problem.dg_elem_jigs.(i);
            List.iter (fun s -> ss.p_spec_stale.(s) <- true) ss.elem_specs.(i)
          end)
        p.Problem.bias.Netlist.Circuit.elements;
      group_residuals_into p ss.p_cur ss.p_mag ss.p_residuals ss.p_res_scale;
      (* ops list: shared with the accepted state unless some operating
         point actually moved *)
      let ops_list =
        if not !ops_changed then ss.ops_list
        else begin
          let ops = ref [] in
          for i = n_elems - 1 downto 0 do
            let ec = ss.elems.(i) in
            match ss.p_ops.(i) with
            | Some op -> ops := (ec.ec_name, op) :: !ops
            | None -> (
                match ec.op with Some op -> ops := (ec.ec_name, op) :: !ops | None -> ())
          done;
          !ops
        end
      in
      (* jig ROMs: cached exact list when untouched, probe fit otherwise *)
      let ops name = List.assoc_opt name ops_list in
      let roms =
        List.concat
          (List.mapi
             (fun j jig ->
               if ss.p_jig_dirty.(j) || not ss.jig_valid.(j) then probe_jig_roms ss j jig ~value ~ops
               else ss.jig_roms.(j))
             p.Problem.jigs)
      in
      Array.iteri
        (fun j dirty ->
          if dirty || not ss.jig_valid.(j) then
            List.iter (fun s -> ss.p_spec_stale.(s) <- true) ss.jig_specs.(j))
        ss.p_jig_dirty;
      (* specs: the persistent backend, repointed at the probe arrays;
         [measure_with] repoints every field again before any exact use *)
      let cx = ss.spec_cx in
      cx.cx_st <- st;
      cx.cx_nv <- ss.p_nv;
      cx.cx_ops <- ops_list;
      cx.cx_node_leaving <- ss.p_cur;
      cx.cx_roms <- roms;
      let spec_values =
        List.mapi
          (fun i (s : Problem.spec) ->
            let sd = ss.dg.Problem.dg_spec_deps.(i) in
            let v =
              (* Corner and transient rows are served from the last exact
                 value: re-simulating them per candidate would dominate
                 the screen, and ranking tolerates the approximation —
                 every accepted state is confirmed through [cost]. *)
              if ss.spec_screened.(i) then ss.spec_cache.(i)
              else if sd.Problem.sd_always || ss.p_spec_stale.(i) || not ss.spec_valid.(i) then
                measure_spec ss.spec_b cx s
              else ss.spec_cache.(i)
            in
            (s.Problem.spec_name, v))
          p.Problem.specs
      in
      let bp =
        {
          node_v = ss.p_nv;
          ops = ops_list;
          residuals = ss.p_residuals;
          res_scale = ss.p_res_scale;
          node_leaving = ss.p_cur;
        }
      in
      (breakdown_of p w st { bias = bp; roms; spec_values }).total
    end

  let stats ss =
    let by_class =
      Hashtbl.fold
        (fun cls (k : counters) acc ->
          {
            cr_class = (if cls = "" then "(none)" else cls);
            cr_evals = k.k_evals;
            cr_dirty_vars = k.k_dirty;
            cr_op_hits = k.k_op_hits;
            cr_op_misses = k.k_op_misses;
            cr_rom_builds = k.k_rom_builds;
            cr_rom_reuses = k.k_rom_reuses;
          }
          :: acc)
        ss.by_class []
      |> List.sort (fun a b -> String.compare a.cr_class b.cr_class)
    in
    {
      full_evals = ss.c_full;
      incr_evals = ss.c_incr;
      dirty_vars = ss.c_dirty;
      op_hits = ss.c_op_hits;
      op_misses = ss.c_op_misses;
      rom_builds = ss.c_rom_builds;
      rom_reuses = ss.c_rom_reuses;
      spec_evals = ss.c_spec_evals;
      spec_reuses = ss.c_spec_reuses;
      resyncs = ss.c_resyncs;
      resync_mismatches = ss.c_mismatches;
      probes = ss.c_probes;
      probe_rom_builds = ss.c_probe_rom_builds;
      probe_fallbacks = 0;
      mom_reuses = 0;
      mom_refreshes = 0;
      dirty_hist = Array.copy ss.hist;
      by_class;
    }

  let problem ss = ss.sp
end
