let vt_thermal = 0.02585

(* Smooth max(x, 0) with scale [nvt]; equals x for x >> nvt and decays
   exponentially for x << 0 — the subthreshold blending. *)
let softplus nvt x = if x > 30.0 *. nvt then x else nvt *. Float.log1p (Float.exp (x /. nvt))

(* Smooth minimum that is exactly 0 at a = 0 (so the channel current
   vanishes identically at vds = 0) and approaches b for a >> b:
   a*b / (a^4 + b^4)^(1/4). At a = b it gives 0.84*b, a gentle knee. *)
let smooth_min a b =
  let a4 = a *. a *. a *. a and b4 = b *. b *. b *. b in
  let denom = (a4 +. b4 +. 1e-300) ** 0.25 in
  a *. b /. denom

(* Smoothly clamped (phi - vbs), always positive. *)
let phi_minus_vbs p vbs =
  let x = p.Mos_params.phi -. vbs in
  0.5 *. (x +. Float.sqrt ((x *. x) +. 0.04))

(* Everything in the channel current that depends on the parameters and
   the effective geometry alone, computed once per evaluation. *)
type geometry = {
  weff : float;
  leff : float;
  nvt : float;  (** subthreshold slope n * kT/q *)
  sqrt_phi : float;
  sigma : float;  (** level 3 DIBL coefficient, 8.14e-22 eta / (cox leff^3) *)
  sce : float;  (** BSIM short-channel rolloff, dvt0 e^(-leff/dvt1) *)
  dibl : float;  (** BSIM DIBL coefficient, eta e^(-leff/(2 dvt1)) *)
  tox : float;  (** BSIM oxide thickness from cox *)
  esat_v : float;  (** level 3 / BSIM velocity-saturation voltage *)
  lambda : float;  (** channel-length modulation; worse at short channel above level 1 *)
}

let geometry p ~weff ~leff =
  let open Mos_params in
  let esat_v () =
    let u0 = p.kp /. p.cox in
    2.0 *. p.vmax /. u0 *. leff
  in
  let short_lambda () = p.lambda *. Float.sqrt (1e-6 /. Float.max leff 0.05e-6) *. p.kappa /. 0.4 in
  let g =
    {
      weff;
      leff;
      nvt = p.subth_n *. vt_thermal;
      sqrt_phi = Float.sqrt p.phi;
      sigma = 0.0;
      sce = 0.0;
      dibl = 0.0;
      tox = 0.0;
      esat_v = 0.0;
      lambda = p.lambda;
    }
  in
  match p.level with
  | Level1 -> g
  | Level3 ->
      {
        g with
        sigma = 8.14e-22 *. p.eta /. (p.cox *. (leff ** 3.0));
        esat_v = esat_v ();
        lambda = short_lambda ();
      }
  | Bsim ->
      {
        g with
        sce = p.dvt0 *. Float.exp (-.leff /. p.dvt1);
        dibl = p.eta *. Float.exp (-.leff /. (2.0 *. p.dvt1));
        tox = 3.45e-11 /. p.cox;
        esat_v = esat_v ();
        lambda = short_lambda ();
      }

let threshold p g ~vbs ~vds =
  let open Mos_params in
  let ph = phi_minus_vbs p vbs in
  match p.level with
  | Level1 -> p.vto +. (p.gamma *. (Float.sqrt ph -. g.sqrt_phi))
  | Level3 ->
      (* Body effect + level-3 style DIBL term. *)
      p.vto +. (p.gamma *. (Float.sqrt ph -. g.sqrt_phi)) -. (g.sigma *. vds)
  | Bsim ->
      p.vto
      +. (p.k1 *. (Float.sqrt ph -. g.sqrt_phi))
      -. (p.k2 *. (ph -. p.phi))
      -. g.sce -. (g.dibl *. vds)

let mobility_factor p g vgst =
  let open Mos_params in
  match p.level with
  | Level1 -> 1.0
  | Level3 -> 1.0 /. (1.0 +. (p.theta *. vgst))
  | Bsim ->
      let x = vgst /. g.tox in
      1.0 /. (1.0 +. (p.ua *. x) +. (p.ub *. x *. x))

(* Saturation voltage. Level 1 is the long-channel pinch-off; the others
   include velocity saturation through the critical field. *)
let vdsat_of p g vgst =
  let open Mos_params in
  match p.level with
  | Level1 -> vgst
  | Level3 | Bsim -> vgst *. g.esat_v /. (vgst +. g.esat_v +. 1e-9)

(* One channel-current evaluation in the device frame (vds >= 0), with
   the threshold, smoothed overdrive and saturation voltage it used. *)
type channel = { mutable ids : float; mutable vth : float; mutable vgst : float; mutable vdsat : float }

let eval_channel p g ch ~vds ~vgs ~vbs =
  let vth = threshold p g ~vbs ~vds in
  let vgst = softplus g.nvt (vgs -. vth) in
  let uf = mobility_factor p g vgst in
  let beta = p.Mos_params.kp *. uf *. g.weff /. g.leff in
  let vdsat = vdsat_of p g vgst in
  let vde = smooth_min vds vdsat in
  ch.ids <- beta *. ((vgst -. (0.5 *. vde)) *. vde) *. (1.0 +. (g.lambda *. vds));
  ch.vth <- vth;
  ch.vgst <- vgst;
  ch.vdsat <- vdsat

let new_channel () = { ids = 0.0; vth = 0.0; vgst = 0.0; vdsat = 0.0 }

let channel_current p ~weff ~leff ~vds ~vgs ~vbs =
  let ch = new_channel () in
  eval_channel p (geometry p ~weff ~leff) ch ~vds ~vgs ~vbs;
  ch.ids

(* Junction diode with exponent clamping: above [vmax_arg] thermal voltages
   the exponential is linearized so NR never sees infinities. *)
let junction_current isat v =
  let x = v /. vt_thermal in
  if x > 40.0 then isat *. (Float.exp 40.0 *. (1.0 +. (x -. 40.0)) -. 1.0)
  else isat *. (Float.exp x -. 1.0)

let junction_conductance isat v =
  let x = v /. vt_thermal in
  let g =
    if x > 40.0 then isat *. Float.exp 40.0 /. vt_thermal
    else isat *. Float.exp x /. vt_thermal
  in
  g +. 1e-12 (* gmin keeps the Jacobian nonsingular when fully off *)

(* Depletion capacitance with forward-bias clamping at fc*pb. *)
let junction_cap c0 pb mj v =
  let fc = 0.5 in
  if v < fc *. pb then c0 /. ((1.0 -. (v /. pb)) ** mj)
  else begin
    let cfc = c0 /. ((1.0 -. fc) ** mj) in
    let slope = c0 *. mj /. pb /. ((1.0 -. fc) ** (mj +. 1.0)) in
    cfc +. (slope *. (v -. (fc *. pb)))
  end

type frame = { vds : float; vgs : float; vbs : float; swapped : bool }

(* Map external voltages into the NMOS-like device frame: flip polarity for
   PMOS, swap drain/source when the channel is reverse-biased. *)
let to_frame pol ~vd ~vg ~vs ~vb =
  let sign = match pol with Sig.N -> 1.0 | Sig.P -> -1.0 in
  let vd = sign *. vd and vg = sign *. vg and vs = sign *. vs and vb = sign *. vb in
  if vd >= vs then { vds = vd -. vs; vgs = vg -. vs; vbs = vb -. vs; swapped = false }
  else { vds = vs -. vd; vgs = vg -. vd; vbs = vb -. vd; swapped = true }

let make p : Sig.mos_eval =
 fun ~w ~l ~m ~vd ~vg ~vs ~vb ->
  let open Mos_params in
  let weff = Float.max w 0.1e-6 in
  let leff = Float.max (l -. (2.0 *. p.ld)) 0.05e-6 in
  let geo = geometry p ~weff ~leff in
  let sign = match p.pol with Sig.N -> 1.0 | Sig.P -> -1.0 in
  let ch = new_channel () in
  (* External-frame channel current into the drain terminal. *)
  let id_of f =
    eval_channel p geo ch ~vds:f.vds ~vgs:f.vgs ~vbs:f.vbs;
    let dir = if f.swapped then -1.0 else 1.0 in
    sign *. dir *. m *. ch.ids
  in
  let id_ext ~vd ~vg ~vs ~vb = id_of (to_frame p.pol ~vd ~vg ~vs ~vb) in
  let f = to_frame p.pol ~vd ~vg ~vs ~vb in
  let id0 = id_of f in
  (* The centre point's threshold, overdrive and saturation voltage also
     decide the region below. *)
  let vth = ch.vth and vgst = ch.vgst and vdsat = ch.vdsat in
  (* Central finite differences give the channel Jacobian; the formulation
     is smooth so a fixed 10uV step is accurate and robust. *)
  let h = 1e-5 in
  let gm = (id_ext ~vd ~vg:(vg +. h) ~vs ~vb -. id_ext ~vd ~vg:(vg -. h) ~vs ~vb) /. (2.0 *. h) in
  let gds = (id_ext ~vd:(vd +. h) ~vg ~vs ~vb -. id_ext ~vd:(vd -. h) ~vg ~vs ~vb) /. (2.0 *. h) in
  let gmbs = (id_ext ~vd ~vg ~vs ~vb:(vb +. h) -. id_ext ~vd ~vg ~vs ~vb:(vb -. h)) /. (2.0 *. h) in
  (* Junction diodes bulk-drain and bulk-source (reverse biased in normal
     operation). Forward voltage in the device frame is vbd' = sign*(vb-vd). *)
  let aj = weff *. p.ldiff *. m in
  let isat = Float.max (p.js *. aj) 1e-18 in
  let vbd_f = sign *. (vb -. vd) in
  let vbs_f = sign *. (vb -. vs) in
  let ibd = junction_current isat vbd_f in
  let ibs = junction_current isat vbs_f in
  let gbd = junction_conductance isat vbd_f in
  let gbs = junction_conductance isat vbs_f in
  (* External-frame junction currents, positive flowing out of the bulk
     terminal into the diffusion. *)
  let ibd_ = sign *. ibd and ibs_ = sign *. ibs in
  (* Region bookkeeping in the device frame. *)
  let nvt = geo.nvt in
  let vgst_raw = f.vgs -. vth in
  let region =
    if vgst_raw < -6.0 *. nvt then Sig.Off
    else if vgst_raw < 2.0 *. nvt then Sig.Subthreshold
    else if f.vds >= 0.95 *. vdsat then Sig.Saturation
    else Sig.Linear
  in
  (* Meyer gate capacitances (region-wise) plus overlaps, in the device
     frame; swap maps cgs/cgd when drain and source are exchanged. *)
  let coxt = p.cox *. weff *. leff *. m in
  let ov_s = p.cgso *. weff *. m and ov_d = p.cgdo *. weff *. m in
  let ov_b = p.cgbo *. leff *. m in
  let cgs_i, cgd_i, cgb_i =
    match region with
    | Sig.Off -> (0.0, 0.0, coxt)
    | Sig.Subthreshold -> (coxt /. 3.0, 0.0, 2.0 *. coxt /. 3.0)
    | Sig.Saturation -> (2.0 *. coxt /. 3.0, 0.0, 0.0)
    | Sig.Linear -> (coxt /. 2.0, coxt /. 2.0, 0.0)
  in
  let cgs_f, cgd_f = if f.swapped then (cgd_i, cgs_i) else (cgs_i, cgd_i) in
  let cj0 = p.cj *. aj and cjsw0 = p.cjsw *. ((2.0 *. p.ldiff) +. weff) *. m in
  let cbd = junction_cap cj0 p.pb p.mj vbd_f +. junction_cap cjsw0 p.pb p.mjsw vbd_f in
  let cbs = junction_cap cj0 p.pb p.mj vbs_f +. junction_cap cjsw0 p.pb p.mjsw vbs_f in
  {
    Sig.id_ = id0;
    ibd_;
    ibs_;
    gm;
    gds;
    gmbs;
    gbd;
    gbs;
    cgs = cgs_f +. ov_s;
    cgd = cgd_f +. ov_d;
    cgb = cgb_i +. ov_b;
    cbd;
    cbs;
    vth;
    vdsat;
    vgst;
    vgst_raw;
    vds_mag = f.vds;
    region;
  }
