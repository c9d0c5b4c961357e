(* Tests for the MNA reference simulator: DC, AC, transient. *)

let value e =
  Netlist.Expr.eval
    { Netlist.Expr.lookup = (fun _ -> raise Not_found); call = (fun _ _ -> nan) }
    e

let registry = Result.get_ok (Devices.Registry.build ~process:"p1u2" [])

let circuit src = Netlist.Elab.flatten ~subckts:[] (Netlist.Parser.parse_elements src)

let solve src =
  match Mna.Dc.solve ~value ~registry (circuit src) with
  | Ok sol -> sol
  | Error e -> Alcotest.failf "dc failed: %s" e

let node sol c name = Mna.Dc.node_voltage sol (Netlist.Circuit.find_node c name)

let test_divider () =
  let c = circuit "v1 top 0 10\nr1 top mid 1k\nr2 mid 0 3k\n" in
  let sol = Result.get_ok (Mna.Dc.solve ~value ~registry c) in
  Alcotest.(check (float 1e-6)) "mid" 7.5 (node sol c "mid")

let test_current_source_sign () =
  (* i src np nn I pushes current from np through itself to nn: with
     i gnd out 1m into 1k, out sits at +1 V. *)
  let c = circuit "i1 0 out 1m\nr1 out 0 1k\n" in
  let sol = Result.get_ok (Mna.Dc.solve ~value ~registry c) in
  Alcotest.(check (float 1e-6)) "out" 1.0 (node sol c "out")

let test_branch_current () =
  let sol = solve "v1 top 0 10\nr1 top 0 2k\n" in
  match Mna.Dc.branch_current sol "v1" with
  | Some i -> Alcotest.(check (float 1e-9)) "5mA out of + terminal" (-5e-3) i
  | None -> Alcotest.fail "no branch current"

let test_controlled_sources () =
  (* VCVS doubling: e1 out 0 a 0 2 with a=3 -> out=6 *)
  let c = circuit "v1 a 0 3\ne1 out 0 a 0 2\nrl out 0 1k\n" in
  let sol = Result.get_ok (Mna.Dc.solve ~value ~registry c) in
  Alcotest.(check (float 1e-6)) "vcvs" 6.0 (node sol c "out");
  (* VCCS: g = 1mS driven by 2V -> 2mA into 1k -> 2V *)
  let c2 = circuit "v1 a 0 2\ng1 0 out a 0 1m\nrl out 0 1k\n" in
  let sol2 = Result.get_ok (Mna.Dc.solve ~value ~registry c2) in
  Alcotest.(check (float 1e-6)) "vccs" 2.0 (node sol2 c2 "out");
  (* CCCS mirrors the v1 branch current *)
  let c3 = circuit "v1 a 0 1\nr1 a 0 1k\nf1 0 out v1 1\nrl out 0 1k\n" in
  let sol3 = Result.get_ok (Mna.Dc.solve ~value ~registry c3) in
  Alcotest.(check (float 1e-6)) "cccs" (-1.0) (node sol3 c3 "out")

let test_inductor_dc_short () =
  let c = circuit "v1 a 0 5\nl1 a b 1m\nr1 b 0 1k\n" in
  let sol = Result.get_ok (Mna.Dc.solve ~value ~registry c) in
  Alcotest.(check (float 1e-6)) "b = a through inductor" 5.0 (node sol c "b")

let test_diode_connected_mos () =
  (* Diode-connected NMOS fed 100uA: gate-source voltage settles above
     vth, and the device current matches the source. *)
  let c = circuit "i1 0 d 100u\nm1 d d 0 0 nmos w=20u l=2u\n" in
  let sol = Result.get_ok (Mna.Dc.solve ~value ~registry c) in
  let vd = node sol c "d" in
  Alcotest.(check bool) "plausible vgs" true (vd > 0.7 && vd < 2.0);
  match List.assoc "m1" sol.Mna.Dc.ops with
  | Mna.Dc.Mos_op op ->
      Alcotest.(check bool) "current matches" true
        (Float.abs (op.Devices.Sig.id_ -. 100e-6) < 1e-6)
  | Mna.Dc.Bjt_op _ -> Alcotest.fail "wrong op kind"

let test_supply_power () =
  let sol = solve "v1 top 0 10\nr1 top 0 1k\n" in
  Alcotest.(check (float 1e-6)) "P = V^2/R" 0.1 (Mna.Dc.supply_power sol ~value)

let test_dc_divergence_reported () =
  (* A V source loop (two sources forcing different voltages on the same
     node pair through nothing) is singular. *)
  match Mna.Dc.solve ~value ~registry (circuit "v1 a 0 1\nv2 a 0 2\n") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected failure"

let test_bjt_bias () =
  let c = circuit "vcc c 0 5\nvb b 0 0.65\nq1 c b 0 npn\n" in
  let sol = Result.get_ok (Mna.Dc.solve ~value ~registry c) in
  match List.assoc "q1" sol.Mna.Dc.ops with
  | Mna.Dc.Bjt_op op -> Alcotest.(check bool) "conducting" true (op.Devices.Sig.ic > 1e-7)
  | Mna.Dc.Mos_op _ -> Alcotest.fail "wrong op kind"

(* --- AC --- *)

let test_ac_rc_pole () =
  let c = circuit "vin in 0 0 ac 1\nr1 in out 1k\nc1 out 0 1u\n" in
  let lin = Mna.Linearize.build ~value ~ops:(fun _ -> None) c in
  let b = lin.Mna.Linearize.b in
  let sel = Mna.Linearize.output_vector lin ~pos:(Netlist.Circuit.find_node c "out") ~neg:None in
  let fp = 1.0 /. (2.0 *. Float.pi *. 1e3 *. 1e-6) in
  let h = Mna.Ac.transfer lin ~b ~sel ~w:(2.0 *. Float.pi *. fp) in
  Alcotest.(check (float 1e-3)) "half power" (1.0 /. Float.sqrt 2.0) (La.Cpx.abs h);
  Alcotest.(check (float 1e-2)) "-45 degrees" (-45.0) (La.Cpx.arg h *. 180.0 /. Float.pi)

let test_ac_superposition () =
  (* Linearity: doubling the excitation doubles the response. *)
  let c = circuit "vin in 0 0 ac 1\nr1 in out 1k\nc1 out 0 1n\nr2 out 0 10k\n" in
  let lin = Mna.Linearize.build ~value ~ops:(fun _ -> None) c in
  let b1 = lin.Mna.Linearize.b in
  let b2 = La.Vec.scale 2.0 b1 in
  let sel = Mna.Linearize.output_vector lin ~pos:(Netlist.Circuit.find_node c "out") ~neg:None in
  let h1 = Mna.Ac.transfer lin ~b:b1 ~sel ~w:1e5 in
  let h2 = Mna.Ac.transfer lin ~b:b2 ~sel ~w:1e5 in
  Alcotest.(check (float 1e-12)) "2x" (2.0 *. h1.La.Cpx.re) h2.La.Cpx.re

let test_ac_inductor () =
  (* RL highpass: at w = R/L gain is 1/sqrt 2. *)
  let c = circuit "vin in 0 0 ac 1\nl1 in out 1m\nr1 out 0 1k\n" in
  let lin = Mna.Linearize.build ~value ~ops:(fun _ -> None) c in
  let b = lin.Mna.Linearize.b in
  let sel = Mna.Linearize.output_vector lin ~pos:(Netlist.Circuit.find_node c "out") ~neg:None in
  let w = 1e3 /. 1e-3 in
  Alcotest.(check (float 1e-3)) "corner" (1.0 /. Float.sqrt 2.0)
    (La.Cpx.abs (Mna.Ac.transfer lin ~b ~sel ~w))

let test_ac_excitation_of () =
  let c = circuit "vin in 0 0 ac 1\nvdd t 0 5\nr1 in out 1k\nr2 t out 1k\nr3 out 0 1k\n" in
  let lin = Mna.Linearize.build ~value ~ops:(fun _ -> None) c in
  let sel = Mna.Linearize.output_vector lin ~pos:(Netlist.Circuit.find_node c "out") ~neg:None in
  let b_vin = Mna.Linearize.excitation_of lin ~src:"vin" in
  let b_vdd = Mna.Linearize.excitation_of lin ~src:"vdd" in
  (* symmetric bridge: both paths give gain 1/3 *)
  Alcotest.(check (float 1e-9)) "vin path" (1.0 /. 3.0) (Mna.Ac.dc_gain lin ~b:b_vin ~sel);
  Alcotest.(check (float 1e-9)) "vdd path" (1.0 /. 3.0) (Mna.Ac.dc_gain lin ~b:b_vdd ~sel)

let test_ugf_and_pm_single_pole () =
  (* VCCS gain stage: gm 1m into 100k || 1p: dc gain 100, pole at
     1/(2 pi 1e5 1e-12) = 1.59 MHz, UGF ~ 159 MHz, PM ~ 90. *)
  let c = circuit "vin in 0 0 ac 1\ng1 0 out in 0 1m\nr1 out 0 100k\nc1 out 0 1p\n" in
  let lin = Mna.Linearize.build ~value ~ops:(fun _ -> None) c in
  let b = lin.Mna.Linearize.b in
  let sel = Mna.Linearize.output_vector lin ~pos:(Netlist.Circuit.find_node c "out") ~neg:None in
  match Mna.Ac.unity_gain_freq lin ~b ~sel with
  | Some fu ->
      Alcotest.(check bool) "ugf ~159MHz" true (Float.abs (fu -. 159.2e6) < 2e6);
      let pm = Mna.Ac.phase_margin_at lin ~b ~sel ~fu in
      Alcotest.(check bool) "pm ~90" true (Float.abs (pm -. 90.0) < 2.0)
  | None -> Alcotest.fail "no ugf"

(* --- Transient --- *)

let test_tran_rc_step () =
  (* RC step response: v(t) = 1 - exp(-t/RC), RC = 1us. *)
  let c = circuit "vin in 0 0\nr1 in out 1k\nc1 out 0 1n\n" in
  let stim = [ ("vin", fun t -> if t > 0.0 then 1.0 else 0.0) ] in
  match Mna.Tran.simulate ~value ~registry ~tstop:5e-6 ~dt:10e-9 ~stimulus:stim c with
  | Error e -> Alcotest.failf "tran: %s" e
  | Ok r ->
      let out = Netlist.Circuit.find_node c "out" in
      let v = Mna.Tran.node_waveform r out in
      let n = Array.length v in
      let at_1tau = v.(100) in
      (* t = 1us *)
      Alcotest.(check bool) "~63% at 1 tau" true (Float.abs (at_1tau -. 0.632) < 0.02);
      Alcotest.(check bool) "settles to 1" true (Float.abs (v.(n - 1) -. 1.0) < 0.01)

let test_tran_slew_measurement () =
  (* A 1 mA source charging 1 nF slews at 1 V/us. Use a switched current
     source and measure dv/dt. *)
  let c = circuit "iin 0 out 0\ncl out 0 1n\nrl out 0 10meg\n" in
  let stim = [ ("iin", fun t -> if t > 1e-6 then 1e-3 else 0.0) ] in
  match Mna.Tran.simulate ~value ~registry ~tstop:4e-6 ~dt:20e-9 ~stimulus:stim c with
  | Error e -> Alcotest.failf "tran: %s" e
  | Ok r ->
      let out = Netlist.Circuit.find_node c "out" in
      let sr = Mna.Tran.slew_rate r out ~t_from:1.5e-6 ~t_to:3e-6 in
      Alcotest.(check bool) "1 V/us" true (Float.abs (sr -. 1e6) < 5e4)


(* --- Additional DC edge cases --- *)

let test_dc_warm_start () =
  (* Warm-starting from a previous solution converges in fewer passes. *)
  let c = circuit "vdd d 0 5\nvg g 0 1.5\nm1 d g 0 0 nmos w=10u l=2u\n" in
  let sol1 = Result.get_ok (Mna.Dc.solve ~value ~registry c) in
  let sol2 = Result.get_ok (Mna.Dc.solve ~x0:sol1.Mna.Dc.x ~value ~registry c) in
  Alcotest.(check bool) "warm start cheaper" true
    (sol2.Mna.Dc.iterations <= sol1.Mna.Dc.iterations)

let test_dc_cascode_stack () =
  (* A two-high cascode stack biases with both devices saturated. *)
  let c =
    circuit
      "vdd top 0 5\nvb1 g1 0 1.2\nvb2 g2 0 2.6\nm1 mid g1 0 0 nmos w=20u l=2u\nm2 out g2 mid 0 nmos w=20u l=2u\nrl top out 10k\n"
  in
  let sol = Result.get_ok (Mna.Dc.solve ~value ~registry c) in
  (match List.assoc "m1" sol.Mna.Dc.ops with
  | Mna.Dc.Mos_op op ->
      Alcotest.(check string) "m1 sat" "sat" (Devices.Sig.region_to_string op.Devices.Sig.region)
  | Mna.Dc.Bjt_op _ -> Alcotest.fail "op kind");
  let vmid = node sol c "mid" in
  Alcotest.(check bool) "mid between rails" true (vmid > 0.1 && vmid < 2.0)

let test_dc_pmos_mirror () =
  (* PMOS current mirror: output current tracks the reference. *)
  let c =
    circuit
      "vdd vdd 0 5\niref bp 0 100u\nmp1 bp bp vdd vdd pmos w=40u l=2u\nmp2 o bp vdd vdd pmos w=40u l=2u\nro o 0 20k\n"
  in
  let sol = Result.get_ok (Mna.Dc.solve ~value ~registry c) in
  match List.assoc "mp2" sol.Mna.Dc.ops with
  | Mna.Dc.Mos_op op ->
      Alcotest.(check bool) "mirrored ~100u" true
        (Float.abs (Float.abs op.Devices.Sig.id_ -. 100e-6) < 25e-6)
  | Mna.Dc.Bjt_op _ -> Alcotest.fail "op kind"

(* Tellegen-style check: at a DC solution, total power delivered by
   sources equals total power dissipated in resistive elements. *)
let test_dc_power_balance () =
  let c = circuit "v1 a 0 6\nr1 a b 1k\nr2 b 0 2k\nr3 b 0 2k\n" in
  let sol = Result.get_ok (Mna.Dc.solve ~value ~registry c) in
  let supplied = Mna.Dc.supply_power sol ~value in
  let va = node sol c "a" and vb = node sol c "b" in
  let dissipated =
    (((va -. vb) ** 2.0) /. 1e3) +. ((vb ** 2.0) /. 2e3) +. ((vb ** 2.0) /. 2e3)
  in
  Alcotest.(check (float 1e-9)) "power balances" supplied dissipated

let test_ac_differential_output () =
  (* Differential selector: v(a) - v(b) on a symmetric divider is zero. *)
  let c = circuit "vin in 0 0 ac 1\nr1 in a 1k\nr2 a 0 1k\nr3 in b 1k\nr4 b 0 1k\n" in
  let lin = Mna.Linearize.build ~value ~ops:(fun _ -> None) c in
  let b = lin.Mna.Linearize.b in
  let sel =
    Mna.Linearize.output_vector lin ~pos:(Netlist.Circuit.find_node c "a")
      ~neg:(Some (Netlist.Circuit.find_node c "b"))
  in
  Alcotest.(check (float 1e-12)) "symmetric difference" 0.0 (Mna.Ac.dc_gain lin ~b ~sel)

let test_linearize_missing_op () =
  let c = circuit "vin g 0 1.5\nvd d 0 3\nm1 d g 0 0 nmos w=10u l=2u\n" in
  match Mna.Linearize.build ~value ~ops:(fun _ -> None) c with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected failure without operating point"

(* The frequency scans on suite jigs against the per-frequency solve:
   [solve_at] builds G + jwC and the boxed excitation afresh at every
   frequency, and the reference scans below sum its solution and walk
   their grids the way the workspace scans do. Every value must keep its
   bits. *)
let ref_transfer lin ~b ~sel ~w =
  let x = Mna.Ac.solve_at lin ~b ~w in
  let acc = ref La.Cpx.zero in
  Array.iteri (fun k s -> if s <> 0.0 then acc := La.Cpx.add !acc (La.Cpx.scale s x.(k))) sel;
  !acc

let ref_mag lin ~b ~sel f = La.Cpx.abs (ref_transfer lin ~b ~sel ~w:(2.0 *. Float.pi *. f))

let ref_unity_gain_freq lin ~b ~sel =
  let points = 221 in
  let fk k = 1.0 *. ((1e11 /. 1.0) ** (float_of_int k /. float_of_int (points - 1))) in
  let rec scan k prev =
    if k >= points then None
    else begin
      let f = fk k in
      let m = ref_mag lin ~b ~sel f in
      match prev with
      | Some (fp, mp) when (mp -. 1.0) *. (m -. 1.0) <= 0.0 && mp > m ->
          let rec bisect lo hi n =
            if n = 0 then Some (Float.sqrt (lo *. hi))
            else begin
              let mid = Float.sqrt (lo *. hi) in
              if ref_mag lin ~b ~sel mid >= 1.0 then bisect mid hi (n - 1) else bisect lo mid (n - 1)
            end
          in
          bisect fp f 60
      | Some _ | None -> scan (k + 1) (Some (f, m))
    end
  in
  scan 0 None

let ref_phase_margin_at lin ~b ~sel ~fu =
  let sgn = if (ref_transfer lin ~b ~sel ~w:0.0).La.Cpx.re >= 0.0 then 1.0 else -1.0 in
  let h f = La.Cpx.scale sgn (ref_transfer lin ~b ~sel ~w:(2.0 *. Float.pi *. f)) in
  let phase = ref (La.Cpx.arg (h 1.0)) in
  let prev = ref (h 1.0) in
  for k = 1 to 120 do
    let cur = h (fu ** (float_of_int k /. 120.0)) in
    phase := !phase +. La.Cpx.arg (La.Cpx.div cur !prev);
    prev := cur
  done;
  180.0 +. (!phase *. 180.0 /. Float.pi)

let ref_bandwidth_3db lin ~b ~sel =
  let target = Float.abs (ref_transfer lin ~b ~sel ~w:0.0).La.Cpx.re /. Float.sqrt 2.0 in
  let rec ladder f =
    if f > 1e12 then 1e12
    else if La.Cpx.abs (ref_transfer lin ~b ~sel ~w:(2.0 *. Float.pi *. f)) < target then f
    else ladder (f *. 1.05)
  in
  ladder 1.0

let bits_equal what a b =
  if not (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)) then
    Alcotest.failf "%s: %h vs per-frequency %h" what a b

let test_ac_scans_match_per_frequency () =
  let scanned = ref 0 in
  List.iter
    (fun (e : Suite.Ckts.entry) ->
      match Core.Compile.compile_source e.Suite.Ckts.source with
      | Error _ -> ()
      | Ok p ->
          let env = Core.Eval.value_env p (Core.State.snapshot p.Core.Problem.state0) in
          let value = Netlist.Expr.eval env in
          List.iter
            (fun (j : Core.Problem.jig) ->
              match Mna.Dc.solve ~value ~registry:p.Core.Problem.registry j.jig_circuit with
              | Error _ -> ()
              | Ok sol ->
                  let ops name = List.assoc_opt name sol.Mna.Dc.ops in
                  let lin = Mna.Linearize.build ~value ~ops j.jig_circuit in
                  List.iter
                    (fun (tfn, (tf : Core.Problem.tf)) ->
                      incr scanned;
                      let what = e.name ^ "/" ^ tfn in
                      let b = Mna.Linearize.excitation_of lin ~src:tf.src in
                      let sel = Mna.Linearize.output_vector lin ~pos:tf.out_pos ~neg:tf.out_neg in
                      let freqs = Array.init 41 (fun k -> 10.0 ** (float_of_int k /. 4.0)) in
                      Array.iteri
                        (fun k (z : La.Cpx.t) ->
                          let r = ref_transfer lin ~b ~sel ~w:(2.0 *. Float.pi *. freqs.(k)) in
                          bits_equal (what ^ " sweep re") z.re r.re;
                          bits_equal (what ^ " sweep im") z.im r.im)
                        (Mna.Ac.sweep lin ~b ~sel freqs);
                      let fu = Mna.Ac.unity_gain_freq lin ~b ~sel in
                      (match (fu, ref_unity_gain_freq lin ~b ~sel) with
                      | Some f, Some f' -> bits_equal (what ^ " ugf") f f'
                      | None, None -> ()
                      | _ -> Alcotest.failf "%s: ugf found by one scan only" what);
                      let fu = Option.value ~default:1e6 fu in
                      bits_equal (what ^ " pm")
                        (Mna.Ac.phase_margin_at lin ~b ~sel ~fu)
                        (ref_phase_margin_at lin ~b ~sel ~fu);
                      bits_equal (what ^ " bw3db") (Mna.Ac.bandwidth_3db lin ~b ~sel)
                        (ref_bandwidth_3db lin ~b ~sel))
                    j.tfs)
            p.Core.Problem.jigs)
    Suite.Ckts.all;
  Alcotest.(check bool) "scanned suite transfer functions" true (!scanned > 10)

let () =
  Alcotest.run "mna"
    [
      ( "dc",
        [
          Alcotest.test_case "divider" `Quick test_divider;
          Alcotest.test_case "current source sign" `Quick test_current_source_sign;
          Alcotest.test_case "branch current" `Quick test_branch_current;
          Alcotest.test_case "controlled sources" `Quick test_controlled_sources;
          Alcotest.test_case "inductor = dc short" `Quick test_inductor_dc_short;
          Alcotest.test_case "diode-connected mos" `Quick test_diode_connected_mos;
          Alcotest.test_case "supply power" `Quick test_supply_power;
          Alcotest.test_case "singular reported" `Quick test_dc_divergence_reported;
          Alcotest.test_case "bjt bias" `Quick test_bjt_bias;
        ] );
      ( "ac",
        [
          Alcotest.test_case "rc pole" `Quick test_ac_rc_pole;
          Alcotest.test_case "superposition" `Quick test_ac_superposition;
          Alcotest.test_case "inductor" `Quick test_ac_inductor;
          Alcotest.test_case "per-source excitation" `Quick test_ac_excitation_of;
          Alcotest.test_case "ugf and pm" `Quick test_ugf_and_pm_single_pole;
          Alcotest.test_case "suite scans match per-frequency solves" `Quick
            test_ac_scans_match_per_frequency;
        ] );
      ( "tran",
        [
          Alcotest.test_case "rc step" `Quick test_tran_rc_step;
          Alcotest.test_case "slew measurement" `Quick test_tran_slew_measurement;
        ] );
      ( "dc-extra",
        [
          Alcotest.test_case "warm start" `Quick test_dc_warm_start;
          Alcotest.test_case "cascode stack" `Quick test_dc_cascode_stack;
          Alcotest.test_case "pmos mirror" `Quick test_dc_pmos_mirror;
          Alcotest.test_case "power balance" `Quick test_dc_power_balance;
        ] );
      ( "ac-extra",
        [
          Alcotest.test_case "differential output" `Quick test_ac_differential_output;
          Alcotest.test_case "missing op rejected" `Quick test_linearize_missing_op;
        ] );
    ]
