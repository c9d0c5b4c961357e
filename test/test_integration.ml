(* End-to-end integration tests: the complete ASTRX -> OBLX -> verification
   pipeline on small problems, and the agreement between OBLX's AWE-based
   predictions and the reference simulator that is the paper's headline
   accuracy claim. *)

(* A deliberately small problem so the full loop runs in seconds: size a
   single common-source stage for gain and bandwidth. *)
let cs_problem =
  {|.title common-source stage
.process p1u2
.param vddval=5

.subckt amp in out vdd vss
m1 out in vss vss nmos w='w' l='l'
m2 out nbp vdd vdd pmos w='wp' l='l'
vbp vdd nbp 'vb'
.ends

.var w min=2u max=200u steps=80
.var l min=1.2u max=10u steps=40
.var wp min=2u max=200u steps=80
.var vb min=0.5 max=2.5

.jig main
xamp in out nvdd nvss amp
vdd nvdd 0 'vddval'
vss nvss 0 0
vin in 0 1.2 ac 1
cl1 out 0 2p
.pz tf v(out) vin
.endjig

.bias
xamp in out nvdd nvss amp
vdd nvdd 0 'vddval'
vss nvss 0 0
vin in 0 1.2
cl1 out 0 2p
.endbias

.obj gain 'db(dc_gain(tf))' good=30 bad=5
.spec ugf 'ugf(tf)' good=5meg bad=100k
.spec pwr 'power()' good=2m bad=20m
|}

let synthesize () =
  match Core.Compile.compile_source cs_problem with
  | Error e -> Alcotest.failf "compile: %s" e
  | Ok p ->
      let r = Core.Oblx.synthesize ~seed:8 ~moves:6000 p in
      (p, r)

let test_end_to_end_meets_constraints () =
  let p, r = synthesize () in
  List.iter
    (fun (s : Core.Problem.spec) ->
      match (s.kind, List.assoc s.Core.Problem.spec_name r.Core.Oblx.predicted) with
      | _, None -> Alcotest.failf "%s not measured" s.spec_name
      | Netlist.Ast.Constraint_ge, Some v ->
          if v < s.good *. 0.95 then Alcotest.failf "%s = %g below %g" s.spec_name v s.good
      | Netlist.Ast.Constraint_le, Some v ->
          if v > s.good *. 1.05 then Alcotest.failf "%s = %g above %g" s.spec_name v s.good
      | (Netlist.Ast.Objective_max | Netlist.Ast.Objective_min), Some _ -> ())
    p.Core.Problem.specs

let test_prediction_matches_simulation () =
  (* The Table-2 claim: for small-signal specs, OBLX's relaxed-dc + AWE
     prediction matches the independent simulator within a few percent. *)
  let p, r = synthesize () in
  match Core.Verify.simulate_specs p r.Core.Oblx.final with
  | Error e -> Alcotest.failf "verify: %s" e
  | Ok sims ->
      List.iter
        (fun (name, sim) ->
          match (sim, List.assoc name r.predicted) with
          | Ok sv, Some pv ->
              let rel = Float.abs (pv -. sv) /. (1.0 +. Float.abs sv) in
              if rel > 0.05 then Alcotest.failf "%s: oblx %g vs sim %g" name pv sv
          | Ok _, None -> Alcotest.failf "%s unmeasured by oblx" name
          | Error e, _ -> Alcotest.failf "%s: simulator failed: %s" name e)
        sims

let test_final_design_is_dc_correct () =
  let p, r = synthesize () in
  (match Core.Verify.kcl_abs_error p r.Core.Oblx.final with
  | Ok e -> Alcotest.(check bool) "KCL < 1 nA" true (e < 1e-9)
  | Error e -> Alcotest.failf "kcl: %s" e);
  match Core.Verify.bias_voltage_error p r.Core.Oblx.final with
  | Ok e -> Alcotest.(check bool) "voltages within 1 mV of Newton" true (e < 1e-3)
  | Error e -> Alcotest.failf "dv: %s" e

let test_multi_start_smoke () =
  (* The domain-parallel multi-start path end-to-end on a real benchmark:
     4 restarts over 2 domains must all complete, agree with the winner
     selection rule, and leave every spec measured. *)
  match Suite.Ckts.find "simple-ota" with
  | None -> Alcotest.fail "simple-ota benchmark missing"
  | Some e -> begin
      match Core.Compile.compile_source e.Suite.Ckts.source with
      | Error msg -> Alcotest.failf "compile: %s" msg
      | Ok p ->
          let best, all = Core.Oblx.best_of ~seed:3 ~moves:1500 ~jobs:2 ~runs:4 p in
          Alcotest.(check int) "all restarts reported" 4 (List.length all);
          List.iter
            (fun (r : Core.Oblx.result) ->
              Alcotest.(check bool) "winner is the minimum" true
                (best.Core.Oblx.best_cost <= r.best_cost);
              Alcotest.(check bool) "run not cut short by default" false r.cut_short)
            all;
          List.iter
            (fun (s : Core.Problem.spec) ->
              match List.assoc s.Core.Problem.spec_name best.Core.Oblx.predicted with
              | Some _ -> ()
              | None -> Alcotest.failf "%s unmeasured on winner" s.spec_name)
            p.Core.Problem.specs
    end

let test_quickstart_compiles () =
  (* Every shipped benchmark + the README quickstart parse and compile. *)
  List.iter
    (fun (e : Suite.Ckts.entry) ->
      match Core.Compile.compile_source e.Suite.Ckts.source with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s: %s" e.name msg)
    Suite.Ckts.all

let test_manual_novel_cascode_simulates () =
  (* The Table-3 "manual" reference design must bias up and have healthy
     gain through the reference simulator. *)
  match Core.Compile.compile_source Suite.Novel_folded_cascode.source with
  | Error e -> Alcotest.fail e
  | Ok p ->
      let st = Core.State.snapshot p.Core.Problem.state0 in
      Array.iteri
        (fun i info ->
          match info with
          | Core.State.User { name; _ } -> begin
              match List.assoc_opt name Suite.Novel_folded_cascode.manual_sizing with
              | Some v -> Core.State.set_initial st i v
              | None -> ()
            end
          | Core.State.Node_voltage _ -> ())
        st.Core.State.info;
      (match Core.Verify.simulate_specs p st with
      | Error e -> Alcotest.failf "manual design: %s" e
      | Ok sims -> begin
          match List.assoc "adm" sims with
          | Ok gain -> Alcotest.(check bool) "manual gain > 40 dB" true (gain > 40.0)
          | Error e -> Alcotest.failf "adm: %s" e
        end)

let test_nodeset_retry_verifies () =
  (* folded-cascode, seed 115, 2000 moves: the winner's relaxed-dc point
     already satisfies KCL, yet a cold DC solve of its jig and bias
     network does not converge. Verify retries from the design's own node
     voltages, so the winner verifies and simulation agrees with the
     prediction. Winners that need the retry are rare, so a change to the
     annealing trajectory may need a new seed here. *)
  match Core.Compile.compile_source Suite.Folded_cascode.source with
  | Error e -> Alcotest.fail e
  | Ok p -> (
      let best, _ = Core.Oblx.best_of ~seed:115 ~moves:2000 ~jobs:1 ~runs:1 p in
      let st = best.Core.Oblx.final in
      let value e = Netlist.Expr.eval (Core.Eval.value_env p st) e in
      (match Mna.Dc.solve ~value ~registry:p.Core.Problem.registry p.Core.Problem.bias with
      | Ok _ -> Alcotest.fail "cold bias solve converges: the retry is no longer exercised"
      | Error _ -> ());
      match Core.Verify.simulate_specs p st with
      | Error e -> Alcotest.failf "winner does not verify: %s" e
      | Ok sims ->
          List.iter
            (fun (name, r) ->
              match (r, List.assoc_opt name best.Core.Oblx.predicted) with
              | Ok sim, Some (Some pred) ->
                  if Float.abs (sim -. pred) > 1e-3 *. (1.0 +. Float.abs sim) then
                    Alcotest.failf "%s: predicted %g, simulated %g" name pred sim
              | Error e, _ -> Alcotest.failf "%s: %s" name e
              | Ok _, _ -> ())
            sims)

let test_ramp_retry_verifies () =
  (* folded-cascode, seed 71, 2000 moves: the winner is far from KCL, and
     neither a cold DC solve of its main jig nor a retry from its node
     voltages converges. Verify's last try, a fine source ramp, finds the
     operating point, so the winner verifies. *)
  match Core.Compile.compile_source Suite.Folded_cascode.source with
  | Error e -> Alcotest.fail e
  | Ok p -> (
      let best, _ = Core.Oblx.best_of ~seed:71 ~moves:2000 ~jobs:1 ~runs:1 p in
      let st = best.Core.Oblx.final in
      let value e = Netlist.Expr.eval (Core.Eval.value_env p st) e in
      let registry = p.Core.Problem.registry in
      let jig = List.hd p.Core.Problem.jigs in
      let circuit = jig.Core.Problem.jig_circuit in
      (match Mna.Dc.solve ~value ~registry circuit with
      | Ok _ -> Alcotest.fail "cold jig solve converges: the ramp is no longer exercised"
      | Error _ -> ());
      let nv = Core.Eval.node_voltages p st in
      let names = p.Core.Problem.bias.Netlist.Circuit.node_names in
      let hint name = Option.map (Array.get nv) (Array.find_index (String.equal name) names) in
      (match Mna.Dc.solve ~x0:(Mna.Dc.nodeset circuit hint) ~value ~registry circuit with
      | Ok _ -> Alcotest.fail "nodeset retry converges: the ramp is no longer exercised"
      | Error _ -> ());
      match Core.Verify.simulate_specs p st with
      | Error e -> Alcotest.failf "winner does not verify: %s" e
      | Ok _ -> ())

let () =
  Alcotest.run "integration"
    [
      ( "pipeline",
        [
          Alcotest.test_case "meets constraints" `Slow test_end_to_end_meets_constraints;
          Alcotest.test_case "prediction = simulation" `Slow test_prediction_matches_simulation;
          Alcotest.test_case "dc-correct at freeze" `Slow test_final_design_is_dc_correct;
          Alcotest.test_case "suite compiles" `Quick test_quickstart_compiles;
          Alcotest.test_case "multi-start smoke" `Slow test_multi_start_smoke;
          Alcotest.test_case "manual novel cascode" `Slow test_manual_novel_cascode_simulates;
          Alcotest.test_case "nodeset retry verifies" `Slow test_nodeset_retry_verifies;
          Alcotest.test_case "ramp retry verifies" `Slow test_ramp_retry_verifies;
        ] );
    ]
