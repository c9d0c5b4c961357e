type t = { index : Sysmat.t; times : float array; states : float array array }

let node_waveform r node =
  let row = Sysmat.node_row r.index node in
  Array.map (fun st -> if row < 0 then 0.0 else st.(row)) r.states

let waveform_of r ~pos ~neg =
  let vp = node_waveform r pos in
  match neg with
  | None -> vp
  | Some n ->
      let vn = node_waveform r n in
      Array.mapi (fun k v -> v -. vn.(k)) vp

(* An interval [t0,t1] counts when it overlaps the open window
   (t_from, t_to) — not only when fully contained. The interval that
   straddles t_from is the step-onset one, where the true peak |dv/dt|
   usually lives when the stimulus edge falls between samples. *)
let peak_slew ~times v ~t_from ~t_to =
  let best = ref 0.0 in
  for k = 1 to Array.length v - 1 do
    let t0 = times.(k - 1) and t1 = times.(k) in
    if t1 > t_from && t0 < t_to && t1 > t0 then
      best := Float.max !best (Float.abs ((v.(k) -. v.(k - 1)) /. (t1 -. t0)))
  done;
  !best

let slew_rate r node ~t_from ~t_to =
  peak_slew ~times:r.times (node_waveform r node) ~t_from ~t_to

let settling_time ~times v ~t_from ~tol =
  let n = Array.length v in
  if n = 0 then 0.0
  else begin
    let v_final = v.(n - 1) in
    (* Value just before the step edge: the last sample at or before t_from. *)
    let onset = ref 0 in
    for k = 0 to n - 1 do
      if times.(k) <= t_from then onset := k
    done;
    let band = tol *. Float.max (Float.abs (v_final -. v.(!onset))) 1e-12 in
    (* Earliest sample after which every later sample stays in the band.
       The final sample always qualifies (it defines v_final). *)
    let settle = ref (n - 1) in
    (try
       for k = n - 1 downto !onset do
         if Float.abs (v.(k) -. v_final) > band then raise Exit else settle := k
       done
     with Exit -> ());
    Float.max 0.0 (times.(!settle) -. t_from)
  end

(* Replace the DC expression of stimulated sources with the value at [t]. *)
let circuit_at stimulus t (circuit : Netlist.Circuit.t) =
  let subst (e : Netlist.Circuit.element) =
    match e with
    | Netlist.Circuit.Vsource ({ name; _ } as r) -> begin
        match List.assoc_opt name stimulus with
        | Some f -> Netlist.Circuit.Vsource { r with dc = Netlist.Expr.const (f t) }
        | None -> e
      end
    | Netlist.Circuit.Isource ({ name; _ } as r) -> begin
        match List.assoc_opt name stimulus with
        | Some f -> Netlist.Circuit.Isource { r with dc = Netlist.Expr.const (f t) }
        | None -> e
      end
    | Netlist.Circuit.Resistor _ | Netlist.Circuit.Capacitor _ | Netlist.Circuit.Inductor _
    | Netlist.Circuit.Vcvs _ | Netlist.Circuit.Vccs _ | Netlist.Circuit.Cccs _
    | Netlist.Circuit.Ccvs _ | Netlist.Circuit.Mosfet _ | Netlist.Circuit.Bjt _ ->
        e
  in
  { circuit with Netlist.Circuit.elements = Array.map subst circuit.Netlist.Circuit.elements }

(* Backward-Euler capacitor companions: conductance C/h plus history
   current. Device capacitances are frozen at the previous step's operating
   point, which is the standard charge-conserving-enough simplification for
   a slew-rate measurement. *)
let stamp_caps idx ~value ~ops ~h (xold : float array) j b =
  let vold node = if node = 0 then 0.0 else xold.(Sysmat.node_row idx node) in
  let companion n1 n2 cv =
    if cv > 0.0 then begin
      let geq = cv /. h in
      Sysmat.stamp_conductance idx j n1 n2 geq;
      let ihist = geq *. (vold n1 -. vold n2) in
      Sysmat.add_vec (Sysmat.node_row idx n1) ihist b;
      Sysmat.add_vec (Sysmat.node_row idx n2) (-.ihist) b
    end
  in
  Array.iter
    (fun (e : Netlist.Circuit.element) ->
      match e with
      | Netlist.Circuit.Capacitor { n1; n2; value = ve; _ } -> companion n1 n2 (value ve)
      | Netlist.Circuit.Mosfet { name; d; g; s; b = nb; _ } -> begin
          match List.assoc_opt name ops with
          | Some (Dc.Mos_op op) ->
              let open Devices.Sig in
              companion g s op.cgs;
              companion g d op.cgd;
              companion g nb op.cgb;
              companion nb d op.cbd;
              companion nb s op.cbs
          | Some (Dc.Bjt_op _) | None -> ()
        end
      | Netlist.Circuit.Bjt { name; c; b = nb; e = ne; _ } -> begin
          match List.assoc_opt name ops with
          | Some (Dc.Bjt_op op) ->
              let open Devices.Sig in
              companion nb ne op.cpi;
              companion nb c op.cmu;
              companion c 0 op.ccs
          | Some (Dc.Mos_op _) | None -> ()
        end
      | Netlist.Circuit.Resistor _ | Netlist.Circuit.Inductor _ | Netlist.Circuit.Vsource _
      | Netlist.Circuit.Isource _ | Netlist.Circuit.Vcvs _ | Netlist.Circuit.Vccs _
      | Netlist.Circuit.Cccs _ | Netlist.Circuit.Ccvs _ ->
          ())
    idx.Sysmat.circuit.Netlist.Circuit.elements

(* One backward-Euler timestep. Every Newton iteration stamps into the
   caller's [jac] and factors it in place. *)
let step ~value ~registry ~h ~stimulus ~t ~jac circuit (xold : float array) ops_prev =
  let ckt_t = circuit_at stimulus t circuit in
  let idx = Sysmat.of_circuit ckt_t in
  let x = Array.copy xold in
  let rec newton it =
    if it > 60 then Error "tran: Newton failed in timestep"
    else begin
      let b = Dc.assemble idx ~value ~registry ~gmin:1e-12 ~srcscale:1.0 ~jac x in
      stamp_caps idx ~value ~ops:ops_prev ~h xold jac b;
      match La.Lu.factor_in_place jac with
      | exception La.Lu.Singular _ -> Error "tran: singular Jacobian"
      | lu ->
          let xnew = La.Lu.solve lu b in
          let maxdv = ref 0.0 in
          for k = 0 to Array.length x - 1 do
            let dv = xnew.(k) -. x.(k) in
            let lim = if k < idx.Sysmat.n_nodes - 1 then Float.max (-0.5) (Float.min 0.5 dv) else dv in
            if k < idx.Sysmat.n_nodes - 1 then maxdv := Float.max !maxdv (Float.abs dv);
            x.(k) <- x.(k) +. lim
          done;
          if !maxdv < 1e-6 then Ok x else newton (it + 1)
    end
  in
  Result.map (fun x -> (x, Dc.collect_ops idx ~value ~registry x)) (newton 0)

let simulate ~value ~registry ~tstop ~dt ~stimulus circuit =
  let ckt0 = circuit_at stimulus 0.0 circuit in
  match Dc.solve ~value ~registry ckt0 with
  | Error e -> Error ("tran: initial operating point: " ^ e)
  | Ok sol0 ->
      let idx = sol0.Dc.index in
      (* The relative epsilon keeps an exactly-dividing tstop/dt from
         rounding just above an integer and growing a degenerate h=0 final
         step (whose C/h companion stamp would be singular). *)
      let nsteps =
        Stdlib.max 1 (int_of_float (Float.ceil (tstop /. dt *. (1.0 -. 1e-12))))
      in
      (* The last grid point clamps to tstop so the stimulus is never
         sampled past the requested horizon; the final (shorter) step gets
         its own h below. *)
      let times = Array.init (nsteps + 1) (fun k -> Float.min (float_of_int k *. dt) tstop) in
      let states = Array.make (nsteps + 1) sol0.Dc.x in
      (* Every timestep's system has the layout of the initial one. *)
      let jac = La.Mat.create idx.Sysmat.size idx.Sysmat.size in
      let rec run k x ops =
        if k > nsteps then Ok { index = idx; times; states }
        else begin
          let h = times.(k) -. times.(k - 1) in
          match step ~value ~registry ~h ~stimulus ~t:times.(k) ~jac circuit x ops with
          | Error e -> Error e
          | Ok (x', ops') ->
              states.(k) <- x';
              run (k + 1) x' ops'
        end
      in
      run 1 sol0.Dc.x sol0.Dc.ops
