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

(* Backward-Euler capacitor companions: conductance C/h plus history
   current. Device capacitances are frozen at the previous step's operating
   point, which is the standard charge-conserving-enough simplification for
   a slew-rate measurement. A step's companions are fixed before its first
   Newton iteration and stamped into every one. *)
type capacitance = Linear of { r1 : int; r2 : int; c : float } | Mos of Newton.mos | Bjt of Newton.bjt

type companions = {
  caps : capacitance array;  (** element order *)
  r1 : int array;
  r2 : int array;
  geq : float array;
  ihist : float array;
  mutable count : int;
}

(* The circuit's capacitances, capacitor values evaluated once. *)
let companions_of (plan : Newton.t) ~value =
  let caps =
    Array.of_list
      (List.filter_map
         (fun (e : Newton.elem) ->
           match e with
           | Newton.Capacitor { r1; r2; cap } -> Some (Linear { r1; r2; c = value cap })
           | Newton.Mos m -> Some (Mos m)
           | Newton.Bjt q -> Some (Bjt q)
           | Newton.Conductance _ | Newton.Inductor _ | Newton.Vsource _ | Newton.Isource _
           | Newton.Vcvs _ | Newton.Vccs _ | Newton.Cccs _ | Newton.Ccvs _ ->
               None)
         (Array.to_list plan.Newton.elems))
  in
  let slots =
    Array.fold_left
      (fun acc cap -> acc + match cap with Linear _ -> 1 | Mos _ -> 5 | Bjt _ -> 3)
      0 caps
  in
  {
    caps;
    r1 = Array.make slots 0;
    r2 = Array.make slots 0;
    geq = Array.make slots 0.0;
    ihist = Array.make slots 0.0;
    count = 0;
  }

(* The companions of a step of length [h] from [xold], each device at the
   operating point it was last evaluated at, which is [xold]'s. *)
let set_companions cs ~h (xold : float array) =
  let vold = Newton.voltage xold in
  cs.count <- 0;
  let companion r1 r2 cv =
    if cv > 0.0 then begin
      let k = cs.count in
      let geq = cv /. h in
      cs.r1.(k) <- r1;
      cs.r2.(k) <- r2;
      cs.geq.(k) <- geq;
      cs.ihist.(k) <- geq *. (vold r1 -. vold r2);
      cs.count <- k + 1
    end
  in
  Array.iter
    (function
      | Linear { r1; r2; c } -> companion r1 r2 c
      | Mos { Newton.d; g; s; b; mos_op = op; _ } ->
          let open Devices.Sig in
          companion g s op.cgs;
          companion g d op.cgd;
          companion g b op.cgb;
          companion b d op.cbd;
          companion b s op.cbs
      | Bjt { Newton.c; base; e; bjt_op = op; _ } ->
          let open Devices.Sig in
          companion base e op.cpi;
          companion base c op.cmu;
          companion c (-1) op.ccs)
    cs.caps

let stamp_companions cs plan =
  for k = 0 to cs.count - 1 do
    let r1 = cs.r1.(k) and r2 = cs.r2.(k) and ihist = cs.ihist.(k) in
    Newton.add_conductance plan r1 r2 cs.geq.(k);
    Newton.add_rhs plan r1 ihist;
    Newton.add_rhs plan r2 (-.ihist)
  done

(* One backward-Euler timestep to time [t] from [xold], where the devices
   were last evaluated. The first Newton iteration starts there, so only
   later iterates evaluate the devices again, and the converged point's
   evaluation serves the next step. *)
let step plan cs ~h ~t (xold : float array) =
  Newton.set_time plan t;
  set_companions cs ~h xold;
  let x = Array.copy xold in
  let rec newton it =
    if it > 60 then Error "tran: Newton failed in timestep"
    else begin
      if it > 0 then Newton.eval_devices plan x;
      Newton.stamp plan ~gmin:1e-12 ~srcscale:1.0 x;
      stamp_companions cs plan;
      match La.Lu.factor_in_place plan.Newton.jac with
      | exception La.Lu.Singular _ -> Error "tran: singular Jacobian"
      | lu ->
          La.Lu.solve_in_place lu plan.Newton.rhs;
          if Newton.update plan x < 1e-6 then begin
            Newton.eval_devices plan x;
            Ok x
          end
          else newton (it + 1)
    end
  in
  newton 0

let simulate ~value ~registry ~tstop ~dt ~stimulus circuit =
  let idx = Sysmat.of_circuit circuit in
  match
    Result.bind (Newton.plan idx ~value ~registry ~stimulus) (fun plan ->
        Result.map (fun (x0, _) -> (plan, x0)) (Newton.dc plan ~max_iter:200))
  with
  | Error e -> Error ("tran: initial operating point: " ^ e)
  | Ok (plan, x0) ->
      let cs = companions_of plan ~value in
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
      let states = Array.make (nsteps + 1) x0 in
      let rec run k x =
        if k > nsteps then Ok { index = idx; times; states }
        else begin
          let h = times.(k) -. times.(k - 1) in
          match step plan cs ~h ~t:times.(k) x with
          | Error e -> Error e
          | Ok x' ->
              states.(k) <- x';
              run (k + 1) x'
        end
      in
      run 1 x0
