type params = {
  pol : Sig.polarity;
  is_ : float;
  bf : float;
  br : float;
  vaf : float;
  var_ : float;
  ikf : float;
  tf : float;
  cje : float;
  vje : float;
  mje : float;
  cjc : float;
  vjc : float;
  mjc : float;
  ccs0 : float;
}

let default_npn =
  {
    pol = Sig.N;
    is_ = 1e-16;
    bf = 100.0;
    br = 2.0;
    vaf = 80.0;
    var_ = 15.0;
    ikf = 5e-3;
    tf = 20e-12;
    cje = 50e-15;
    vje = 0.8;
    mje = 0.33;
    cjc = 30e-15;
    vjc = 0.7;
    mjc = 0.4;
    ccs0 = 80e-15;
  }

let with_param p key v =
  match key with
  | "is" -> Some { p with is_ = v }
  | "bf" -> Some { p with bf = v }
  | "br" -> Some { p with br = v }
  | "vaf" -> Some { p with vaf = v }
  | "var" -> Some { p with var_ = v }
  | "ikf" -> Some { p with ikf = v }
  | "tf" -> Some { p with tf = v }
  | "cje" -> Some { p with cje = v }
  | "vje" -> Some { p with vje = v }
  | "mje" -> Some { p with mje = v }
  | "cjc" -> Some { p with cjc = v }
  | "vjc" -> Some { p with vjc = v }
  | "mjc" -> Some { p with mjc = v }
  | "ccs" -> Some { p with ccs0 = v }
  | _ -> None

let vt = Mos_common.vt_thermal

(* exp with linearization above 40 thermal voltages. *)
let limited_exp x =
  if x > 40.0 then Float.exp 40.0 *. (1.0 +. (x -. 40.0)) else Float.exp x

(* Device-frame (npn) collector and base currents. *)
let currents p ~area ~vbe ~vbc =
  let is_ = p.is_ *. area in
  let ifwd = is_ *. (limited_exp (vbe /. vt) -. 1.0) in
  let irev = is_ *. (limited_exp (vbc /. vt) -. 1.0) in
  let q1 = 1.0 /. Float.max (1.0 -. (vbc /. p.vaf) -. (vbe /. p.var_)) 0.05 in
  let q2 = ifwd /. (p.ikf *. area) in
  let qb = q1 /. 2.0 *. (1.0 +. Float.sqrt (1.0 +. (4.0 *. Float.max q2 0.0))) in
  let ict = (ifwd -. irev) /. qb in
  let ib = (ifwd /. p.bf) +. (irev /. p.br) in
  let ic = ict -. (irev /. p.br) in
  (ic, ib)

let make p : Sig.bjt_eval =
 fun ~area ~vc ~vb ~ve ->
  let sign = match p.pol with Sig.N -> 1.0 | Sig.P -> -1.0 in
  let frame ~vc ~vb ~ve =
    let vbe = sign *. (vb -. ve) and vbc = sign *. (vb -. vc) in
    let ic, ib = currents p ~area ~vbe ~vbc in
    (sign *. ic, sign *. ib)
  in
  let ic0, ib0 = frame ~vc ~vb ~ve in
  (* Central differences: each perturbed frame serves both currents. *)
  let h = 1e-6 in
  let icp_b, ibp_b = frame ~vc ~vb:(vb +. h) ~ve in
  let icm_b, ibm_b = frame ~vc ~vb:(vb -. h) ~ve in
  let icp_c, ibp_c = frame ~vc:(vc +. h) ~vb ~ve in
  let icm_c, ibm_c = frame ~vc:(vc -. h) ~vb ~ve in
  let dc_dvb = (icp_b -. icm_b) /. (2.0 *. h) in
  let db_dvb = (ibp_b -. ibm_b) /. (2.0 *. h) in
  let dc_dvc = (icp_c -. icm_c) /. (2.0 *. h) in
  let db_dvc = (ibp_c -. ibm_c) /. (2.0 *. h) in
  let vbe_f = sign *. (vb -. ve) and vbc_f = sign *. (vb -. vc) in
  let cje_dep = Mos_common.junction_cap (p.cje *. area) p.vje p.mje vbe_f in
  let cjc_dep = Mos_common.junction_cap (p.cjc *. area) p.vjc p.mjc vbc_f in
  let cdiff = p.tf *. Float.max dc_dvb 0.0 in
  let region =
    if vbe_f < 0.4 then Sig.Off
    else if vbc_f > 0.3 then Sig.Linear (* saturated bipolar ~ "linear" MOS *)
    else Sig.Saturation (* forward active *)
  in
  {
    Sig.ic = ic0;
    ib = ib0;
    bjt_gm = dc_dvb;
    gpi = Float.max db_dvb 1e-12;
    go = Float.max dc_dvc 1e-12;
    gmu = db_dvc;
    cpi = cje_dep +. cdiff;
    cmu = cjc_dep;
    ccs = p.ccs0 *. area;
    vbe_f;
    bjt_region = region;
  }
