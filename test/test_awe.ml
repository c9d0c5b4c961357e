(* Tests for Asymptotic Waveform Evaluation: moments, Padé, reduced-order
   models, measurements, stability screening. *)

let value e =
  Netlist.Expr.eval
    { Netlist.Expr.lookup = (fun _ -> raise Not_found); call = (fun _ _ -> nan) }
    e

let circuit src = Netlist.Elab.flatten ~subckts:[] (Netlist.Parser.parse_elements src)

let lin_of src out =
  let c = circuit src in
  let lin = Mna.Linearize.build ~value ~ops:(fun _ -> None) c in
  let b = lin.Mna.Linearize.b in
  let sel = Mna.Linearize.output_vector lin ~pos:(Netlist.Circuit.find_node c out) ~neg:None in
  (lin, b, sel)

let test_moments_rc () =
  (* Single-pole RC: H(s) = 1/(1 + sRC); m_k = (-RC)^k. *)
  let lin, b, sel = lin_of "vin in 0 0 ac 1\nr1 in out 1k\nc1 out 0 1n\n" "out" in
  let m = Awe.Moments.compute lin ~b ~sel ~count:5 in
  let rc = 1e3 *. 1e-9 in
  (* The 1e-12 S regularization against floating nodes perturbs moments at
     the ~1e-9 relative level; tolerate 1e-7. *)
  for k = 0 to 4 do
    let expect = (-.rc) ** float_of_int k in
    if Float.abs (m.(k) -. expect) > 1e-7 *. Float.abs expect then
      Alcotest.failf "m%d = %.17g, expected %.17g" k m.(k) expect
  done

let prop_moments_random_single_rc =
  (* Random single-section RC: m_k = (-RC)^k exactly, and the dominant pole
     sits at 1/(2 pi RC). *)
  QCheck.Test.make ~name:"random RC section matches closed form" ~count:50
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let r = 10.0 ** QCheck.Gen.float_range 2.0 4.5 rng in
      let c = 10.0 ** QCheck.Gen.float_range (-12.5) (-9.5) rng in
      let lin, b, sel =
        lin_of (Printf.sprintf "vin in 0 0 ac 1\nr1 in out %.17g\nc1 out 0 %.17g\n" r c) "out"
      in
      let rc = r *. c in
      let m = Awe.Moments.compute lin ~b ~sel ~count:5 in
      let moments_ok =
        Array.for_all Fun.id
          (Array.init 5 (fun k ->
               let expect = (-.rc) ** float_of_int k in
               Float.abs (m.(k) -. expect) <= 1e-6 *. Float.abs expect))
      in
      let pole_ok =
        match Awe.Rom.build lin ~b ~sel with
        | Error _ -> false
        | Ok rom -> begin
            match Awe.Rom.dominant_pole_hz rom with
            | None -> false
            | Some f ->
                let expect = 1.0 /. (2.0 *. Float.pi *. rc) in
                Float.abs (f -. expect) <= 1e-3 *. expect
          end
      in
      moments_ok && pole_ok)

let prop_moments_two_section_recurrence =
  (* Random two-section RC ladder. The exact transfer function is
     H(s) = 1 / (1 + b s + a s^2) with a = R1 C1 R2 C2 and
     b = R1 C1 + R1 C2 + R2 C2, so the Maclaurin coefficients satisfy the
     recurrence m0 = 1, m1 = -b, m_k = -b m_(k-1) - a m_(k-2); the poles
     are the roots of a s^2 + b s + 1 (always real for an RC ladder). *)
  QCheck.Test.make ~name:"two-section ladder matches moment recurrence and pole formula"
    ~count:50
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let pick lo hi = 10.0 ** QCheck.Gen.float_range lo hi rng in
      let r1 = pick 2.0 4.5 and r2 = pick 2.0 4.5 in
      let c1 = pick (-12.5) (-9.5) and c2 = pick (-12.5) (-9.5) in
      let lin, b, sel =
        lin_of
          (Printf.sprintf
             "vin n0 0 0 ac 1\nr1 n0 n1 %.17g\nc1 n1 0 %.17g\nr2 n1 n2 %.17g\nc2 n2 0 %.17g\n"
             r1 c1 r2 c2)
          "n2"
      in
      let a = r1 *. c1 *. r2 *. c2 in
      let bb = (r1 *. c1) +. (r1 *. c2) +. (r2 *. c2) in
      let count = 6 in
      let expect = Array.make count 0.0 in
      expect.(0) <- 1.0;
      expect.(1) <- -.bb;
      for k = 2 to count - 1 do
        expect.(k) <- (-.bb *. expect.(k - 1)) -. (a *. expect.(k - 2))
      done;
      let m = Awe.Moments.compute lin ~b ~sel ~count in
      let moments_ok =
        Array.for_all Fun.id
          (Array.init count (fun k ->
               Float.abs (m.(k) -. expect.(k)) <= 1e-6 *. Float.abs expect.(k)))
      in
      let pole_ok =
        (* Dominant (smaller-magnitude) root of a s^2 + b s + 1 = 0. *)
        let disc = (bb *. bb) -. (4.0 *. a) in
        let p_dom = ((-.bb) +. Float.sqrt disc) /. (2.0 *. a) in
        match Awe.Rom.build lin ~b ~sel with
        | Error _ -> false
        | Ok rom -> begin
            match Awe.Rom.dominant_pole_hz rom with
            | None -> false
            | Some f ->
                let expect_hz = Float.abs p_dom /. (2.0 *. Float.pi) in
                Float.abs (f -. expect_hz) <= 1e-3 *. expect_hz
          end
      in
      moments_ok && pole_ok)

let test_pade_single_pole () =
  let rc = 1e-6 in
  let moments = Array.init 6 (fun k -> (-.rc) ** float_of_int k) in
  match Awe.Pade.fit ~q:1 moments with
  | Error e -> Alcotest.fail e
  | Ok rom ->
      Alcotest.(check int) "one pole" 1 (Array.length rom.Awe.Pade.poles);
      let p = rom.Awe.Pade.poles.(0) in
      Alcotest.(check bool) "pole at -1/RC" true
        (Float.abs (p.La.Cpx.re +. (1.0 /. rc)) < 1e-3 /. rc);
      Alcotest.(check bool) "stable" true (Awe.Pade.stable rom)

let test_pade_moment_reconstruction () =
  (* Two real poles; fitted model must reproduce the moments. *)
  let p1 = -1e4 and p2 = -1e7 in
  let k1 = 5e3 and k2 = 2e6 in
  let moment k =
    (* m_k = -(k1/p1^(k+1) + k2/p2^(k+1)) *)
    -.((k1 /. (p1 ** float_of_int (k + 1))) +. (k2 /. (p2 ** float_of_int (k + 1))))
  in
  let moments = Array.init 8 moment in
  match Awe.Pade.fit ~q:2 moments with
  | Error e -> Alcotest.fail e
  | Ok rom ->
      let fitted = Awe.Pade.moments rom 8 in
      for k = 0 to 7 do
        let got = fitted.(k) in
        if Float.abs (got -. moments.(k)) > 1e-6 *. Float.abs moments.(k) then
          Alcotest.failf "moment %d mismatch: %g vs %g" k got moments.(k)
      done

let test_routh () =
  (* (s+1)(s+2)(s+3) = s^3 + 6s^2 + 11s + 6: stable *)
  Alcotest.(check bool) "stable cubic" true (Awe.Pade.routh_stable [| 6.0; 11.0; 6.0; 1.0 |]);
  (* (s-1)(s+2)(s+3) = s^3 + 4s^2 + s - 6: unstable *)
  Alcotest.(check bool) "rhp root" false (Awe.Pade.routh_stable [| -6.0; 1.0; 4.0; 1.0 |]);
  (* s^2 + s + 1: stable complex pair *)
  Alcotest.(check bool) "complex pair" true (Awe.Pade.routh_stable [| 1.0; 1.0; 1.0 |]);
  (* s^2 - s + 1: unstable complex pair *)
  Alcotest.(check bool) "rhp complex pair" false (Awe.Pade.routh_stable [| 1.0; -1.0; 1.0 |]);
  (* s^2 + 1: marginal -> reported unstable *)
  Alcotest.(check bool) "marginal" false (Awe.Pade.routh_stable [| 1.0; 0.0; 1.0 |])

let prop_routh_matches_roots =
  QCheck.Test.make ~name:"routh agrees with actual root locations" ~count:200
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let d = 1 + Random.State.int rng 4 in
      let roots =
        Array.init d (fun _ ->
            (* random real roots, mixed signs, away from the axis *)
            let v = QCheck.Gen.float_range 0.3 5.0 rng in
            La.Cpx.of_float (if Random.State.bool rng then -.v else v))
      in
      let poly = La.Poly.from_roots roots in
      let truly_stable = Array.for_all (fun r -> r.La.Cpx.re < 0.0) roots in
      Awe.Pade.routh_stable poly = truly_stable)

let test_rom_matches_direct_ac () =
  (* 3-section ladder: ROM magnitude within 0.1% of direct AC in-band. *)
  let lin, b, sel =
    lin_of "vin n0 0 0 ac 1\nr1 n0 n1 1k\nc1 n1 0 1n\nr2 n1 n2 2k\nc2 n2 0 500p\nr3 n2 n3 5k\nc3 n3 0 100p\n"
      "n3"
  in
  match Awe.Rom.build lin ~b ~sel with
  | Error e -> Alcotest.fail e
  | Ok rom ->
      for k = 0 to 40 do
        let f = 10.0 ** (2.0 +. (float_of_int k /. 8.0)) in
        let direct = La.Cpx.abs (Mna.Ac.transfer lin ~b ~sel ~w:(2.0 *. Float.pi *. f)) in
        let approx = Awe.Rom.magnitude_at rom ~f in
        if direct > 1e-3 && Float.abs (approx -. direct) > 1e-3 *. direct then
          Alcotest.failf "f=%g: %g vs %g" f approx direct
      done

let prop_rom_random_rc_networks =
  (* Random RC trees: AWE matches direct AC at and below the -3 dB point. *)
  QCheck.Test.make ~name:"rom matches direct AC on random RC ladders" ~count:25
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 2 + Random.State.int rng 5 in
      let buf = Buffer.create 128 in
      Buffer.add_string buf "vin n0 0 0 ac 1\n";
      for k = 1 to n do
        let r = 10.0 ** QCheck.Gen.float_range 2.0 4.5 rng in
        let c = 10.0 ** QCheck.Gen.float_range (-12.5) (-9.5) rng in
        Buffer.add_string buf (Printf.sprintf "r%d n%d n%d %g\n" k (k - 1) k r);
        Buffer.add_string buf (Printf.sprintf "c%d n%d 0 %g\n" k k c)
      done;
      let lin, b, sel = lin_of (Buffer.contents buf) (Printf.sprintf "n%d" n) in
      match Awe.Rom.build lin ~b ~sel with
      | Error _ -> false
      | Ok rom ->
          let ok = ref true in
          for k = 0 to 30 do
            let f = 10.0 ** (1.0 +. (float_of_int k /. 5.0)) in
            let direct =
              La.Cpx.abs (Mna.Ac.transfer lin ~b ~sel ~w:(2.0 *. Float.pi *. f))
            in
            let approx = Awe.Rom.magnitude_at rom ~f in
            if direct > 0.5 && Float.abs (approx -. direct) > 1e-2 *. direct then ok := false
          done;
          !ok)

let test_rom_dc_gain_and_bw () =
  let lin, b, sel = lin_of "vin in 0 0 ac 1\nr1 in out 1k\nr2 out 0 3k\nc1 out 0 1n\n" "out" in
  match Awe.Rom.build lin ~b ~sel with
  | Error e -> Alcotest.fail e
  | Ok rom ->
      Alcotest.(check (float 1e-9)) "dc gain 0.75" 0.75 (Awe.Rom.dc_gain rom);
      (* pole at 1/(2 pi (R1||R2) C) = 1/(2 pi 750 1n) *)
      let fp = 1.0 /. (2.0 *. Float.pi *. 750.0 *. 1e-9) in
      (match Awe.Rom.bandwidth_3db rom with
      | Some f -> Alcotest.(check bool) "bw" true (Float.abs (f -. fp) < 0.01 *. fp)
      | None -> Alcotest.fail "no bw");
      match Awe.Rom.dominant_pole_hz rom with
      | Some f -> Alcotest.(check bool) "pole1" true (Float.abs (f -. fp) < 0.01 *. fp)
      | None -> Alcotest.fail "no pole"

let test_rom_zeros () =
  (* Strictly proper two-pole one-zero network: vin - R1 - out with C1 to
     ground and a series R2+C2 branch to ground. The shunt impedance is
     zero where R2 + 1/(sC2) = 0, i.e. a transfer zero at -1/(R2 C2). *)
  let lin, b, sel =
    lin_of "vin in 0 0 ac 1\nr1 in out 1k\nc1 out 0 10p\nr2 out mid 10k\nc2 mid 0 1n\n" "out"
  in
  match Awe.Rom.build lin ~b ~sel with
  | Error e -> Alcotest.fail e
  | Ok rom ->
      let zs = Awe.Rom.zeros rom in
      Alcotest.(check int) "one zero" 1 (Array.length zs);
      let expect = -1.0 /. (10e3 *. 1e-9) in
      Alcotest.(check bool) "zero location" true
        (Float.abs (zs.(0).La.Cpx.re -. expect) < 0.01 *. Float.abs expect)

let test_rom_step_response () =
  (* Single pole: step response 1 - exp(-t/RC). *)
  let lin, b, sel = lin_of "vin in 0 0 ac 1\nr1 in out 1k\nc1 out 0 1n\n" "out" in
  match Awe.Rom.build lin ~b ~sel with
  | Error e -> Alcotest.fail e
  | Ok rom ->
      let rc = 1e-6 in
      List.iter
        (fun t ->
          let got = Awe.Rom.step_response rom ~time:t in
          let expect = 1.0 -. Float.exp (-.t /. rc) in
          if Float.abs (got -. expect) > 1e-6 then
            Alcotest.failf "step(%g) = %g, expected %g" t got expect)
        [ 0.1e-6; 1e-6; 3e-6 ]

let test_rom_no_coupling () =
  (* Output unconnected to the source: all moments zero. *)
  let lin, b, sel = lin_of "vin in 0 0 ac 1\nr1 in 0 1k\nr2 out 0 1k\n" "out" in
  match Awe.Rom.build lin ~b ~sel with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected failure for zero transfer"

let test_rom_faster_than_direct () =
  (* The claim behind the whole approach: one AWE evaluation beats a
     20-point direct sweep on a mid-size circuit. *)
  let buf = Buffer.create 256 in
  Buffer.add_string buf "vin n0 0 0 ac 1\n";
  for k = 1 to 25 do
    Buffer.add_string buf (Printf.sprintf "r%d n%d n%d 1k\nc%d n%d 0 1p\n" k (k - 1) k k k)
  done;
  let lin, b, sel = lin_of (Buffer.contents buf) "n25" in
  let time f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to 10 do
      f ()
    done;
    Unix.gettimeofday () -. t0
  in
  let t_awe = time (fun () -> ignore (Awe.Rom.build lin ~b ~sel)) in
  let freqs = Array.init 20 (fun k -> 10.0 ** (3.0 +. (float_of_int k /. 4.0))) in
  let t_direct = time (fun () -> ignore (Mna.Ac.sweep lin ~b ~sel freqs)) in
  Alcotest.(check bool) "awe faster" true (t_awe < t_direct)


let test_rom_settling_time () =
  (* Single pole RC (tau = 1us): 1%% settling at -tau*ln(0.01) = 4.6 us. *)
  let lin, b, sel = lin_of "vin in 0 0 ac 1\nr1 in out 1k\nc1 out 0 1n\n" "out" in
  match Awe.Rom.build lin ~b ~sel with
  | Error e -> Alcotest.fail e
  | Ok rom -> begin
      match Awe.Rom.settling_time rom ~tol:0.01 with
      | Some t ->
          let expect = 1e-6 *. Float.log 100.0 in
          Alcotest.(check bool) "1% settling near 4.6us" true
            (Float.abs (t -. expect) < 0.15 *. expect)
      | None -> Alcotest.fail "no settling time"
    end

let () =
  Alcotest.run "awe"
    [
      ( "moments",
        [
          Alcotest.test_case "rc analytic" `Quick test_moments_rc;
          QCheck_alcotest.to_alcotest prop_moments_random_single_rc;
          QCheck_alcotest.to_alcotest prop_moments_two_section_recurrence;
        ] );
      ( "pade",
        [
          Alcotest.test_case "single pole" `Quick test_pade_single_pole;
          Alcotest.test_case "moment reconstruction" `Quick test_pade_moment_reconstruction;
          Alcotest.test_case "routh" `Quick test_routh;
          QCheck_alcotest.to_alcotest prop_routh_matches_roots;
        ] );
      ( "rom",
        [
          Alcotest.test_case "matches direct AC" `Quick test_rom_matches_direct_ac;
          QCheck_alcotest.to_alcotest prop_rom_random_rc_networks;
          Alcotest.test_case "dc gain and bandwidth" `Quick test_rom_dc_gain_and_bw;
          Alcotest.test_case "zeros" `Quick test_rom_zeros;
          Alcotest.test_case "step response" `Quick test_rom_step_response;
          Alcotest.test_case "no coupling" `Quick test_rom_no_coupling;
          Alcotest.test_case "settling time" `Quick test_rom_settling_time;
          Alcotest.test_case "faster than direct" `Quick test_rom_faster_than_direct;
        ] );
    ]
