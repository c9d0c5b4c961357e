(* Regression tests for the transient/corner measurement path: the
   fixed-step backward-Euler simulator's grid clamping, the shared
   window-overlap predicate behind every slew measurement, corner-keyed
   compile caching, Corners.worst_case's missing-row handling, the
   .tran/.noise/.psrr/corner= card validation, and the end-to-end
   determinism of a transient-dominant synthesis across job counts. *)

let value e =
  Netlist.Expr.eval
    { Netlist.Expr.lookup = (fun _ -> raise Not_found); call = (fun _ _ -> nan) }
    e

let registry = Result.get_ok (Devices.Registry.build ~process:"p1u2" [])

let circuit src = Netlist.Elab.flatten ~subckts:[] (Netlist.Parser.parse_elements src)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* --- Backward-Euler fixed-step integration --- *)

let test_rc_step_golden () =
  (* RC step response against the analytic 1 - exp(-t/RC) pointwise.
     Backward Euler is first-order, so with dt = tau/1000 every sample
     must track the exact curve to a fraction of a percent. *)
  let c = circuit "vin in 0 0\nr1 in out 1k\nc1 out 0 1n\n" in
  let tau = 1e-6 in
  let stim = [ ("vin", fun t -> if t > 0.0 then 1.0 else 0.0) ] in
  match Mna.Tran.simulate ~value ~registry ~tstop:5e-6 ~dt:1e-9 ~stimulus:stim c with
  | Error e -> Alcotest.failf "tran: %s" e
  | Ok r ->
      let out = Netlist.Circuit.find_node c "out" in
      let v = Mna.Tran.node_waveform r out in
      let worst = ref 0.0 in
      Array.iteri
        (fun i t ->
          let exact = if t <= 0.0 then 0.0 else 1.0 -. exp (-.t /. tau) in
          worst := Float.max !worst (Float.abs (v.(i) -. exact)))
        r.Mna.Tran.times;
      Alcotest.(check bool) "pointwise within 0.5%" true (!worst < 5e-3)

let test_tstop_clamp () =
  (* Regression: with tstop not a multiple of dt, the last grid point used
     to land past tstop and sample the stimulus outside its declared
     horizon. The final point must now be clamped to exactly tstop, and
     the stimulus must never be asked for t > tstop. *)
  let c = circuit "vin in 0 0\nr1 in out 1k\nc1 out 0 1n\n" in
  let tstop = 1.05e-6 and dt = 0.2e-6 in
  let overshoot = ref 0.0 in
  let stim =
    [
      ("vin",
       fun t ->
         if t > tstop then overshoot := Float.max !overshoot (t -. tstop);
         1.0);
    ]
  in
  (match Mna.Tran.simulate ~value ~registry ~tstop ~dt ~stimulus:stim c with
  | Error e -> Alcotest.failf "tran: %s" e
  | Ok r ->
      let times = r.Mna.Tran.times in
      let n = Array.length times in
      Alcotest.(check bool) "last point is exactly tstop" true
        (times.(n - 1) = tstop);
      Alcotest.(check bool) "grid is strictly increasing" true
        (Array.for_all (fun ok -> ok)
           (Array.init (n - 1) (fun i -> times.(i) < times.(i + 1)))));
  Alcotest.(check (float 0.0)) "stimulus never sampled past tstop" 0.0 !overshoot

let test_peak_slew_window_edge () =
  (* Regression: the old predicate kept only intervals fully inside the
     window, so a transition straddling the window edge — exactly where a
     step onset between samples lands — was silently dropped. The shared
     overlap predicate must count every interval overlapping (t_from,
     t_to). *)
  let times = [| 0.0; 1.0; 2.0; 3.0; 4.0 |] in
  let v = [| 0.0; 0.0; 10.0; 10.0; 10.0 |] in
  (* The 10 V/s transition lives in (1, 2). A window starting inside that
     interval must still see it. *)
  let s = Mna.Tran.peak_slew ~times v ~t_from:1.5 ~t_to:4.0 in
  Alcotest.(check (float 1e-9)) "straddling interval counted" 10.0 s;
  (* Same for a window ending inside the transition interval. *)
  let s = Mna.Tran.peak_slew ~times v ~t_from:0.0 ~t_to:1.2 in
  Alcotest.(check (float 1e-9)) "edge at the far end counted" 10.0 s;
  (* Intervals fully outside the window stay excluded. *)
  let s = Mna.Tran.peak_slew ~times v ~t_from:2.0 ~t_to:4.0 in
  Alcotest.(check (float 1e-9)) "flat tail only" 0.0 s

let test_settling_time () =
  let times = Array.init 101 (fun i -> float_of_int i *. 1e-8) in
  let tau = 1e-7 in
  let v = Array.map (fun t -> 1.0 -. exp (-.t /. tau)) times in
  let ts = Mna.Tran.settling_time ~times v ~t_from:0.0 ~tol:0.01 in
  (* 1% settling of a single pole is ~4.6 tau. *)
  Alcotest.(check bool) "about 4.6 tau" true
    (ts > 4.0 *. tau && ts < 5.2 *. tau)

(* --- Corner-qualified compile cache --- *)

let ota_source = (Option.get (Suite.Ckts.find "simple-ota")).Suite.Ckts.source
let corner name = Option.get (Devices.Registry.find_corner name)

let cok = function
  | Ok v -> v
  | Error (e, _) -> Alcotest.failf "unexpected compile error: %s" e

let test_corner_cache_keys () =
  (* Regression: the cache key used to ignore the device corner, so a
     slow-corner compile could serve a nominal request. Distinct corners
     must produce distinct keys; the nominal corner keeps the bare hash. *)
  let bare = Result.get_ok (Core.Compile_cache.key_of_source ota_source) in
  let nominal =
    Result.get_ok (Core.Compile_cache.key_of_source ~corner:(corner "nominal") ota_source)
  in
  let slow =
    Result.get_ok (Core.Compile_cache.key_of_source ~corner:(corner "slow") ota_source)
  in
  let fast =
    Result.get_ok (Core.Compile_cache.key_of_source ~corner:(corner "fast") ota_source)
  in
  Alcotest.(check string) "nominal keeps the bare hash" bare nominal;
  Alcotest.(check bool) "slow is corner-qualified" true (slow <> bare);
  Alcotest.(check bool) "corners are distinct" true (slow <> fast);
  Alcotest.(check bool) "qualifier is the corner name" true (contains slow "@slow")

let test_corner_cache_hit_miss () =
  let cache = Core.Compile_cache.create ~capacity:8 () in
  let _, o1 = cok (Core.Compile_cache.compile cache ~source:ota_source ()) in
  let _, o2 =
    cok (Core.Compile_cache.compile cache ~corner:(corner "slow") ~source:ota_source ())
  in
  let _, o3 =
    cok (Core.Compile_cache.compile cache ~corner:(corner "slow") ~source:ota_source ())
  in
  let _, o4 =
    cok (Core.Compile_cache.compile cache ~corner:(corner "nominal") ~source:ota_source ())
  in
  Alcotest.(check bool) "nominal miss" true (o1 = Core.Compile_cache.Miss);
  Alcotest.(check bool) "slow is a fresh key" true (o2 = Core.Compile_cache.Miss);
  Alcotest.(check bool) "slow again hits" true (o3 = Core.Compile_cache.Hit);
  Alcotest.(check bool) "explicit nominal shares the bare key" true
    (o4 = Core.Compile_cache.Hit);
  let st = Core.Compile_cache.stats cache in
  Alcotest.(check int) "two distinct entries" 2 st.Core.Compile_cache.entries

(* --- Corners.worst_case --- *)

let test_worst_case_missing_row () =
  let p =
    match Core.Compile.compile_source ota_source with
    | Ok p -> p
    | Error e -> Alcotest.failf "compile: %s" e
  in
  let full name v =
    {
      Core.Corners.sc_corner = name;
      sc_values =
        List.map (fun (s : Core.Problem.spec) -> (s.Core.Problem.spec_name, Ok v))
          p.Core.Problem.specs;
    }
  in
  (* A corner result missing one spec row entirely (say, produced by an
     older description revision). This used to raise Not_found and take
     the whole table down; it must now be a per-spec Error. *)
  let missing =
    {
      Core.Corners.sc_corner = "slow";
      sc_values =
        List.filter_map
          (fun (s : Core.Problem.spec) ->
            if s.Core.Problem.spec_name = "ugf" then None
            else Some (s.Core.Problem.spec_name, Ok 2.0))
          p.Core.Problem.specs;
    }
  in
  let table = Core.Corners.worst_case p [ full "nominal" 1.0; missing ] in
  Alcotest.(check int) "one row per spec" (List.length p.Core.Problem.specs)
    (List.length table);
  (match List.assoc "ugf" table with
  | Error e ->
      Alcotest.(check bool) "error names the corner and spec" true
        (contains e "slow" && contains e "ugf")
  | Ok _ -> Alcotest.fail "missing row must be a per-spec error");
  (* The other rows still fold to the pessimistic direction. *)
  let ugf_spec = Option.get (Core.Problem.find_spec p "ugf") in
  ignore ugf_spec;
  (match List.assoc "pwr" table with
  | Ok v ->
      (* pwr is minimized: worst case is the larger value. *)
      Alcotest.(check (float 1e-12)) "le-spec folds to max" 2.0 v
  | Error e -> Alcotest.failf "pwr: %s" e);
  (match List.assoc "adm" table with
  | Ok v -> Alcotest.(check (float 1e-12)) "ge-spec folds to min" 1.0 v
  | Error e -> Alcotest.failf "adm: %s" e)

(* --- .tran / .noise / .psrr / corner= card validation --- *)

let tran_source = (Option.get (Suite.Ckts.find "tran-buffer")).Suite.Ckts.source

let replace_line ~matching ~with_ src =
  String.split_on_char '\n' src
  |> List.map (fun l -> if contains l matching then with_ else l)
  |> String.concat "\n"

let expect_compile_error ~what ~needle src =
  match Core.Compile.compile_source src with
  | Ok _ -> Alcotest.failf "%s: expected a compile error" what
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: error mentions %S (got %S)" what needle e)
        true (contains e needle)

let test_card_validation () =
  (* Removing the .tran card strands the slew/settle specs. *)
  expect_compile_error ~what:"missing .tran" ~needle:".tran"
    (replace_line ~matching:".tran " ~with_:"" tran_source);
  (* A zero step amplitude cannot excite anything. *)
  expect_compile_error ~what:"vstep=0" ~needle:"vstep"
    (replace_line ~matching:".tran "
       ~with_:".tran tstop=1u dt=1n dtloop=10n vstep=0" tran_source);
  (* A transient stores every step: the step count is bounded. *)
  expect_compile_error ~what:"1e8 in-loop steps" ~needle:"steps of tstop"
    (replace_line ~matching:".tran "
       ~with_:".tran tstop=1 dt=1m dtloop=10n vstep=10m" tran_source);
  (* Two .tran cards in one jig are ambiguous. *)
  expect_compile_error ~what:"duplicate .tran" ~needle:".tran"
    (replace_line ~matching:".tran "
       ~with_:".tran tstop=1u dt=1n vstep=10m\n.tran tstop=2u dt=1n vstep=10m"
       tran_source);
  (* corner= must name a standard corner. *)
  expect_compile_error ~what:"unknown corner" ~needle:"corner"
    (replace_line ~matching:"corner=slow"
       ~with_:".spec ugf_slow 'ugf(tf)' good=3meg bad=300k corner=sideways"
       tran_source);
  (* psrr_db takes two transfer functions. *)
  expect_compile_error ~what:"psrr arity" ~needle:"psrr_db"
    (replace_line ~matching:"psrr_db(tf, tfdd)"
       ~with_:".spec psrr 'psrr_db(tf)' good=30 bad=5" tran_source)

let test_tran_card_parsed () =
  match Core.Compile.compile_source tran_source with
  | Error e -> Alcotest.failf "compile: %s" e
  | Ok p ->
      let jig = List.hd p.Core.Problem.jigs in
      (match jig.Core.Problem.jig_tran with
      | None -> Alcotest.fail "jig lost its .tran card"
      | Some tc ->
          Alcotest.(check (float 1e-12)) "tstop" 1e-6 tc.Netlist.Ast.tr_tstop;
          Alcotest.(check (float 1e-15)) "dt" 1e-9 tc.Netlist.Ast.tr_dt;
          Alcotest.(check (option (float 1e-14))) "dtloop" (Some 1e-8)
            tc.Netlist.Ast.tr_dtloop;
          Alcotest.(check (float 1e-6)) "vstep" 10e-3 tc.Netlist.Ast.tr_vstep);
      (* The corner row compiled its registry ahead of time. *)
      Alcotest.(check bool) "slow corner registry resolved" true
        (List.mem_assoc "slow" p.Core.Problem.corner_regs)

(* --- End-to-end: transient-dominant synthesis, jobs=1 vs jobs=8 --- *)

let test_tran_synthesis_determinism () =
  let p =
    match Core.Compile.compile_source tran_source with
    | Ok p -> p
    | Error e -> Alcotest.failf "compile: %s" e
  in
  let moves = 200 and seed = 3 and runs = 2 in
  let b1, _ = Core.Oblx.best_of ~seed ~moves ~jobs:1 ~runs p in
  let b8, _ = Core.Oblx.best_of ~seed ~moves ~jobs:8 ~runs p in
  Alcotest.(check bool) "winner bit-identical across job counts" true
    (Int64.bits_of_float b1.Core.Oblx.best_cost
    = Int64.bits_of_float b8.Core.Oblx.best_cost);
  List.iter2
    (fun (n1, v1) (n8, v8) ->
      Alcotest.(check string) "prediction row order" n1 n8;
      match (v1, v8) with
      | Some a, Some b ->
          Alcotest.(check bool) (n1 ^ " prediction bit-identical") true
            (Int64.bits_of_float a = Int64.bits_of_float b)
      | None, None -> ()
      | _ -> Alcotest.failf "%s: predictions disagree on availability" n1)
    b1.Core.Oblx.predicted b8.Core.Oblx.predicted;
  (* The winner re-verifies through the exact-grid transient: slew and
     settling both measurable, slew strictly positive. The card's [ts]
     spec is settle(tf, 0.02), which Verify measures on the card's exact
     [dt]. *)
  let jig = List.hd p.Core.Problem.jigs in
  let tc = Option.get jig.Core.Problem.jig_tran in
  let vstep = tc.Netlist.Ast.tr_vstep
  and tstop = tc.Netlist.Ast.tr_tstop
  and dt = tc.Netlist.Ast.tr_dt in
  (match Core.Verify.transient_slew p b1.Core.Oblx.final ~tf:"tf" ~vstep ~tstop ~dt with
  | Ok sr -> Alcotest.(check bool) "exact-grid slew positive" true (sr > 0.0)
  | Error e -> Alcotest.failf "transient_slew: %s" e);
  match Core.Verify.simulate_specs p b1.Core.Oblx.final with
  | Error e -> Alcotest.failf "simulate_specs: %s" e
  | Ok rows -> begin
      match List.assoc_opt "ts" rows with
      | Some (Ok ts) -> Alcotest.(check bool) "settling within the horizon" true (ts <= tstop)
      | Some (Error e) -> Alcotest.failf "ts: %s" e
      | None -> Alcotest.fail "no ts row"
    end

let () =
  Alcotest.run "transient"
    [
      ( "tran",
        [
          Alcotest.test_case "rc step golden" `Quick test_rc_step_golden;
          Alcotest.test_case "tstop clamp" `Quick test_tstop_clamp;
          Alcotest.test_case "window-edge slew" `Quick test_peak_slew_window_edge;
          Alcotest.test_case "settling time" `Quick test_settling_time;
        ] );
      ( "corner-cache",
        [
          Alcotest.test_case "keys" `Quick test_corner_cache_keys;
          Alcotest.test_case "hit/miss" `Quick test_corner_cache_hit_miss;
        ] );
      ( "corners",
        [ Alcotest.test_case "worst-case missing row" `Quick test_worst_case_missing_row ] );
      ( "cards",
        [
          Alcotest.test_case "validation errors" `Quick test_card_validation;
          Alcotest.test_case "tran card fields" `Quick test_tran_card_parsed;
        ] );
      ( "synthesis",
        [
          Alcotest.test_case "jobs determinism + exact verify" `Slow
            test_tran_synthesis_determinism;
        ] );
    ]
