type t = {
  p : Problem.t;
  session : Eval.Incr.session option;
      (* shared incremental-eval session: NR moves read residuals and
         device operating points from its caches *)
  range : Anneal.Range.t;
  max_step : float array;
  discrete : int array;  (** indices of discrete vars *)
  continuous : int array;  (** indices of continuous vars (user + node) *)
  user_cont : int array;  (** continuous user vars *)
  node_vars : int array;  (** indices of node-voltage vars *)
  mutable last_var : int;  (** variable touched by the last move, -1 = none *)
}

let classes = [| "user-disc"; "user-cont"; "node-v"; "nr-partial"; "nr-full"; "multi" |]

(* Classes eligible for batched candidate screening: the cheap state
   perturbations. The Newton-Raphson classes pay for exact residual and
   Jacobian solves while PROPOSING, so screening them would spend the
   expensive part k times to save one evaluation. *)
let screenable = [| true; true; true; false; false; true |]

let make ?session (p : Problem.t) =
  let st = p.Problem.state0 in
  let n = State.n_vars st in
  let initial = Array.make n 0.0 in
  let min_step = Array.make n 0.0 in
  let max_step = Array.make n 0.0 in
  let discrete = ref [] and continuous = ref [] and node_vars = ref [] in
  Array.iteri
    (fun i info ->
      match info with
      | State.User { steps = Some s; _ } ->
          discrete := i :: !discrete;
          initial.(i) <- Float.max 1.0 (float_of_int s /. 8.0);
          min_step.(i) <- 0.51;
          max_step.(i) <- Float.max 1.0 (float_of_int s /. 2.0)
      | State.User { vmin; vmax; steps = None; _ } ->
          continuous := i :: !continuous;
          let span = vmax -. vmin in
          initial.(i) <- span /. 10.0;
          min_step.(i) <- span *. 1e-8;
          max_step.(i) <- span /. 2.0
      | State.Node_voltage { vmin; vmax; _ } ->
          continuous := i :: !continuous;
          node_vars := i :: !node_vars;
          let span = vmax -. vmin in
          initial.(i) <- span /. 10.0;
          min_step.(i) <- 1e-7;
          max_step.(i) <- span /. 2.0)
    st.State.info;
  let continuous = Array.of_list (List.rev !continuous) in
  let node_vars = Array.of_list (List.rev !node_vars) in
  let user_cont =
    Array.of_seq
      (Seq.filter (fun i -> not (Array.mem i node_vars)) (Array.to_seq continuous))
  in
  {
    p;
    session;
    range = Anneal.Range.create ~n ~initial ~min_step ~max_step;
    max_step;
    discrete = Array.of_list (List.rev !discrete);
    continuous;
    user_cont;
    node_vars;
    last_var = -1;
  }

(* --- Newton-Raphson over the free node voltages. --- *)

(* Assemble the Jacobian d(residual_k)/d(x_l) of the grouped KCL residuals
   with respect to the node-voltage variables, at the current state. *)
let bias_jacobian_with (p : Problem.t) (st : State.t) ~nv ~op_of =
  let tl = p.Problem.tl in
  let nf = tl.Treelink.n_free in
  let j = La.Mat.create nf nf in
  let env = Eval.value_env p st in
  let value e = Netlist.Expr.eval env e in
  let var_of node =
    match tl.Treelink.of_node.(node) with
    | Treelink.Free (k, _) -> Some k
    | Treelink.Fixed _ -> None
  in
  (* d(current leaving [row_node])/d(v[col_node]) += g *)
  let add row_node col_node g =
    match (var_of row_node, var_of col_node) with
    | Some r, Some c -> La.Mat.add_to j r c g
    | Some _, None | None, Some _ | None, None -> ()
  in
  let pair n1 n2 g =
    (* conductance-like element between n1 and n2 *)
    add n1 n1 g;
    add n1 n2 (-.g);
    add n2 n1 (-.g);
    add n2 n2 g
  in
  Array.iter
    (fun (e : Netlist.Circuit.element) ->
      match e with
      | Netlist.Circuit.Resistor { n1; n2; value = ve; _ } -> pair n1 n2 (1.0 /. value ve)
      | Netlist.Circuit.Capacitor _ | Netlist.Circuit.Vsource _ | Netlist.Circuit.Isource _ -> ()
      | Netlist.Circuit.Vccs { np; nn; ncp; ncn; gm; _ } ->
          let g = value gm in
          add np ncp g;
          add np ncn (-.g);
          add nn ncp (-.g);
          add nn ncn g
      | Netlist.Circuit.Mosfet { name; d; g = ng; s; b; model; w; l; mult } -> begin
          let op =
            match op_of name with
            | Some (Mna.Dc.Mos_op op) -> Some op
            | Some (Mna.Dc.Bjt_op _) -> None
            | None -> begin
                match Devices.Registry.find_exn p.Problem.registry model with
                | Devices.Sig.Mos { eval; _ } ->
                    Some
                      (eval ~w:(value w) ~l:(value l) ~m:(value mult) ~vd:nv.(d)
                         ~vg:nv.(ng) ~vs:nv.(s) ~vb:nv.(b))
                | Devices.Sig.Bjt _ -> None
              end
          in
          match op with
          | None -> ()
          | Some op ->
              let open Devices.Sig in
              let gsum = op.gm +. op.gds +. op.gmbs in
              add d ng op.gm;
              add d d op.gds;
              add d b op.gmbs;
              add d s (-.gsum);
              add s ng (-.op.gm);
              add s d (-.op.gds);
              add s b (-.op.gmbs);
              add s s gsum;
              pair b d op.gbd;
              pair b s op.gbs
        end
      | Netlist.Circuit.Bjt { name; c; b; e = ne; model; area } -> begin
          let op =
            match op_of name with
            | Some (Mna.Dc.Bjt_op op) -> Some op
            | Some (Mna.Dc.Mos_op _) -> None
            | None -> begin
                match Devices.Registry.find_exn p.Problem.registry model with
                | Devices.Sig.Bjt { eval; _ } ->
                    Some (eval ~area:(value area) ~vc:nv.(c) ~vb:nv.(b) ~ve:nv.(ne))
                | Devices.Sig.Mos _ -> None
              end
          in
          match op with
          | None -> ()
          | Some op ->
              let open Devices.Sig in
              let dic_dvc = op.go and dic_dvb = op.bjt_gm in
              let dic_dve = -.(dic_dvc +. dic_dvb) in
              let dib_dvc = op.gmu and dib_dvb = op.gpi in
              let dib_dve = -.(dib_dvc +. dib_dvb) in
              add c c dic_dvc;
              add c b dic_dvb;
              add c ne dic_dve;
              add b c dib_dvc;
              add b b dib_dvb;
              add b ne dib_dve;
              add ne c (-.(dic_dvc +. dib_dvc));
              add ne b (-.(dic_dvb +. dib_dvb));
              add ne ne (-.(dic_dve +. dib_dve))
        end
      | Netlist.Circuit.Inductor _ | Netlist.Circuit.Vcvs _ | Netlist.Circuit.Cccs _
      | Netlist.Circuit.Ccvs _ ->
          ())
    p.Problem.bias.Netlist.Circuit.elements;
  for k = 0 to nf - 1 do
    La.Mat.add_to j k k 1e-12
  done;
  j

let bias_jacobian (p : Problem.t) (st : State.t) =
  bias_jacobian_with p st ~nv:(Eval.node_voltages p st) ~op_of:(fun _ -> None)

let residual_norm res = Array.fold_left (fun a r -> a +. Float.abs r) 0.0 res

(* With a session, the residual vector and the Jacobian's device operating
   points come out of the incremental caches: across the backtracking line
   search (and across NR iterations near convergence) most device models
   hit the memo instead of re-evaluating. The arithmetic is the same
   either way — the session serves bitwise-identical values. *)
let residuals_of ?session p st =
  match session with
  | Some ss -> Eval.Incr.residuals_quick ss st
  | None -> Eval.residuals_quick p st

let jacobian_of ?session p st =
  match session with
  | Some ss ->
      let nv, ops = Eval.Incr.bias_view ss st in
      bias_jacobian_with p st ~nv ~op_of:(fun name -> List.assoc_opt name ops)
  | None -> bias_jacobian p st

let newton_step_with ?session (p : Problem.t) (st : State.t) ~damping =
  let nf = p.Problem.tl.Treelink.n_free in
  if nf = 0 then None
  else begin
    let res = residuals_of ?session p st in
    let j = jacobian_of ?session p st in
    match La.Lu.factor_in_place j with
    | exception La.Lu.Singular _ -> None
    | lu ->
        let delta = La.Lu.solve lu res in
        let maxd = Array.fold_left (fun a d -> Float.max a (Float.abs d)) 0.0 delta in
        if not (Float.is_finite maxd) then None
        else begin
          let base = Problem.node_var_base p in
          let saved = Array.sub st.State.values base nf in
          let norm0 = residual_norm res in
          (* x <- x - scale*delta with a per-step voltage cap, then a
             backtracking line search on the residual norm: far from the
             solution a capped full step can overshoot and cycle. *)
          let apply scale =
            let changed = ref 0.0 in
            for k = 0 to nf - 1 do
              let i = base + k in
              let nvv = State.clamp st i (saved.(k) -. (scale *. delta.(k))) in
              changed := Float.max !changed (Float.abs (nvv -. saved.(k)));
              st.State.values.(i) <- nvv
            done;
            !changed
          in
          let cap = 0.5 in
          let scale0 = if maxd *. damping > cap then cap /. maxd else damping in
          let rec backtrack scale tries =
            let changed = apply scale in
            if tries = 0 then Some changed
            else begin
              let norm1 = residual_norm (residuals_of ?session p st) in
              if norm1 <= norm0 *. 0.999 || norm1 < 1e-15 then Some changed
              else backtrack (scale *. 0.35) (tries - 1)
            end
          in
          backtrack scale0 5
        end
  end

let newton_step (p : Problem.t) (st : State.t) ~damping = newton_step_with p st ~damping

(* Full Newton solve of the bias network through the reference DC engine
   (gmin stepping, source stepping): "a simulator performs a complete
   Newton-Raphson before it evaluates circuit performance" — this move
   gives the annealer exactly that, on demand. The solution's node
   voltages are mapped back onto the relaxed-dc variables. *)
let newton_global (p : Problem.t) (st : State.t) =
  let env = Eval.value_env p st in
  let value e = Netlist.Expr.eval env e in
  match Mna.Dc.solve ~value ~registry:p.Problem.registry p.Problem.bias with
  | Error _ -> false
  | Ok sol ->
      let base = Problem.node_var_base p in
      Array.iteri
        (fun k members ->
          match members with
          | node :: _ -> begin
              match p.Problem.tl.Treelink.of_node.(node) with
              | Treelink.Free (_, off) ->
                  let v = Mna.Dc.node_voltage sol node -. value off in
                  st.State.values.(base + k) <- State.clamp st (base + k) v
              | Treelink.Fixed _ -> ()
            end
          | [] -> ())
        p.Problem.tl.Treelink.members;
      true

let newton_solve ?session p st =
  let rec loop it last =
    if it >= 10 then last
    else begin
      match newton_step_with ?session p st ~damping:1.0 with
      | None -> last
      | Some change -> if change < 1e-9 then Some change else loop (it + 1) (Some change)
    end
  in
  loop 0 None

(* --- Move proposals. --- *)

let save_nodes (p : Problem.t) (st : State.t) =
  let base = Problem.node_var_base p in
  let nf = p.Problem.tl.Treelink.n_free in
  Array.sub st.State.values base nf

let restore_nodes (p : Problem.t) (st : State.t) saved =
  let base = Problem.node_var_base p in
  Array.blit saved 0 st.State.values base (Array.length saved)

let propose ctx (st : State.t) k rng =
  let p = ctx.p in
  ctx.last_var <- -1;
  let perturb_continuous i =
    let old = st.State.values.(i) in
    let step = Anneal.Range.step ctx.range i in
    st.State.values.(i) <- State.clamp st i (old +. (Anneal.Rng.gaussian rng *. step));
    ctx.last_var <- i;
    fun () -> st.State.values.(i) <- old
  in
  let perturb_discrete i =
    let window = Int.max 1 (int_of_float (Anneal.Range.step ctx.range i)) in
    let mag = 1 + Anneal.Rng.int rng window in
    let delta = if Anneal.Rng.bool rng then mag else -mag in
    let old = State.set_grid_slot st i (st.State.grid_index.(i) + delta) in
    ctx.last_var <- i;
    fun () -> ignore (State.set_grid_slot st i old)
  in
  match k with
  | 0 ->
      if Array.length ctx.discrete = 0 then None
      else Some (perturb_discrete (Anneal.Rng.pick rng ctx.discrete))
  | 1 ->
      if Array.length ctx.user_cont = 0 then None
      else Some (perturb_continuous (Anneal.Rng.pick rng ctx.user_cont))
  | 2 ->
      if Array.length ctx.node_vars = 0 then None
      else Some (perturb_continuous (Anneal.Rng.pick rng ctx.node_vars))
  | 3 ->
      if Array.length ctx.node_vars = 0 then None
      else begin
        let saved = save_nodes p st in
        match newton_step_with ?session:ctx.session p st ~damping:0.7 with
        | Some _ -> Some (fun () -> restore_nodes p st saved)
        | None ->
            restore_nodes p st saved;
            None
      end
  | 4 ->
      if Array.length ctx.node_vars = 0 then None
      else begin
        let saved = save_nodes p st in
        (* Try the cheap iterated step first; escalate to the full
           simulator solve when it stalls far from dc-correctness. *)
        let ok =
          match newton_solve ?session:ctx.session p st with
          | Some change when change < 1e-6 -> true
          | Some _ | None -> newton_global p st
        in
        if ok then Some (fun () -> restore_nodes p st saved)
        else begin
          restore_nodes p st saved;
          None
        end
      end
  | 5 ->
      let n = State.n_vars st in
      if n = 0 then None
      else begin
        let count = 2 + Anneal.Rng.int rng 2 in
        let undos = ref [] in
        for _ = 1 to count do
          let i = Anneal.Rng.int rng n in
          let undo =
            if State.is_discrete st.State.info.(i) then perturb_discrete i
            else perturb_continuous i
          in
          undos := undo :: !undos
        done;
        ctx.last_var <- -1;
        let undos = !undos in
        Some (fun () -> List.iter (fun u -> u ()) undos)
      end
  | _ -> None

let record_result ctx _k ~accepted =
  if ctx.last_var >= 0 then Anneal.Range.record ctx.range ctx.last_var ~accepted

let ranges_converged ctx =
  Array.for_all
    (fun i ->
      let rel = Anneal.Range.step ctx.range i /. Float.max ctx.max_step.(i) 1e-30 in
      rel < 1e-4)
    ctx.continuous
