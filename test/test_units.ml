(* Tests for SPICE numeric literals and the expression language. *)

let check_parse s expect =
  match Netlist.Units.parse s with
  | Ok v ->
      if Float.abs (v -. expect) > 1e-12 *. (1.0 +. Float.abs expect) then
        Alcotest.failf "%s -> %.17g, expected %.17g" s v expect
  | Error e -> Alcotest.failf "%s failed: %s" s e

let test_units_suffixes () =
  check_parse "1" 1.0;
  check_parse "1.5" 1.5;
  check_parse "-3" (-3.0);
  check_parse "1k" 1e3;
  check_parse "2.5u" 2.5e-6;
  check_parse "1Meg" 1e6;
  check_parse "1meg" 1e6;
  check_parse "1MEG" 1e6;
  check_parse "10m" 10e-3;
  check_parse "100f" 100e-15;
  check_parse "3p" 3e-12;
  check_parse "4.7n" 4.7e-9;
  check_parse "2g" 2e9;
  check_parse "1t" 1e12;
  check_parse "1e-12" 1e-12;
  check_parse "1.5e3" 1500.0;
  (* trailing unit letters after the suffix, as SPICE allows *)
  check_parse "10pF" 10e-12;
  check_parse "5kOhm" 5e3

let test_units_errors () =
  (match Netlist.Units.parse "" with Error _ -> () | Ok _ -> Alcotest.fail "empty");
  (match Netlist.Units.parse "abc" with Error _ -> () | Ok _ -> Alcotest.fail "alpha");
  (match Netlist.Units.parse "1x" with Error _ -> () | Ok _ -> Alcotest.fail "bad suffix");
  (* a mantissa without a digit is an error, never an exception *)
  List.iter
    (fun s ->
      match Netlist.Units.parse s with
      | Error _ -> ()
      | Ok v -> Alcotest.failf "%S parsed as %g" s v
      | exception e -> Alcotest.failf "%S raised %s" s (Printexc.to_string e))
    [ "."; ".u"; "-."; "+.k"; ".e5" ]

let test_units_is_number () =
  Alcotest.(check bool) "digit" true (Netlist.Units.is_number "5u");
  Alcotest.(check bool) "neg" true (Netlist.Units.is_number "-3");
  Alcotest.(check bool) "dot" true (Netlist.Units.is_number ".5");
  Alcotest.(check bool) "ident" false (Netlist.Units.is_number "w1");
  Alcotest.(check bool) "empty" false (Netlist.Units.is_number "")

let prop_format_roundtrip =
  QCheck.Test.make ~name:"units: format then parse is identity" ~count:200
    QCheck.(float_range (-1e14) 1e14)
    (fun v ->
      QCheck.assume (Float.is_finite v);
      match Netlist.Units.parse (Netlist.Units.format v) with
      | Ok v' -> Float.abs (v -. v') <= 1e-4 *. (1.0 +. Float.abs v)
      | Error _ -> false)

(* --- Expressions --- *)

let env vars =
  {
    Netlist.Expr.lookup =
      (fun path ->
        match path with
        | [ one ] -> ( match List.assoc_opt one vars with Some v -> v | None -> raise Not_found)
        | _ -> raise Not_found);
    call =
      (fun name args ->
        match (name, args) with
        | "twice", [ v ] -> 2.0 *. v
        | _ -> raise (Netlist.Expr.Eval_error ("unknown fn " ^ name)));
  }

let eval ?(vars = []) s = Netlist.Expr.eval (env vars) (Netlist.Expr.parse s)

let check_eval ?vars s expect =
  let v = eval ?vars s in
  if Float.abs (v -. expect) > 1e-9 *. (1.0 +. Float.abs expect) then
    Alcotest.failf "%s -> %.17g, expected %.17g" s v expect

let test_expr_arith () =
  check_eval "1 + 2 * 3" 7.0;
  check_eval "(1 + 2) * 3" 9.0;
  check_eval "2 ^ 3 ^ 2" 512.0;
  (* right assoc *)
  check_eval "-2 * 3" (-6.0);
  check_eval "10 / 4" 2.5;
  check_eval "1Meg / 1k" 1000.0;
  check_eval "3p * 2" 6e-12

let test_expr_vars_calls () =
  check_eval ~vars:[ ("w", 4.0); ("l", 2.0) ] "w / l + 1" 3.0;
  check_eval "twice(21)" 42.0;
  check_eval ~vars:[ ("x", 3.0) ] "twice(x) + twice(2)" 10.0

let test_expr_refs () =
  let e = Netlist.Expr.parse "i / (2 * (cl + xamp.m1.cd))" in
  Alcotest.(check bool) "plain and dotted refs" true
    (e
    = Netlist.Expr.(
        Div (Ref [ "i" ], Mul (Const 2.0, Add (Ref [ "cl" ], Ref [ "xamp"; "m1"; "cd" ])))))

let test_expr_subst () =
  let e = Netlist.Expr.parse "w * 2" in
  let e' = Netlist.Expr.subst [ ("w", Netlist.Expr.const 5.0) ] e in
  let v = Netlist.Expr.eval (env []) e' in
  Alcotest.(check (float 1e-9)) "substituted" 10.0 v

let test_expr_division_by_zero () =
  match eval "1 / 0" with
  | exception Netlist.Expr.Eval_error _ -> ()
  | v -> Alcotest.failf "expected Eval_error, got %g" v

let test_expr_parse_errors () =
  let bad s =
    match Netlist.Expr.parse s with
    | exception Netlist.Expr.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %S" s
  in
  bad "1 +";
  bad "foo(";
  bad "(1 + 2";
  bad "1 2";
  bad "@"

let test_expr_size () =
  Alcotest.(check int) "size" 5 (Netlist.Expr.size (Netlist.Expr.parse "1 + 2 * x"))

let () =
  Alcotest.run "units-expr"
    [
      ( "units",
        [
          Alcotest.test_case "suffixes" `Quick test_units_suffixes;
          Alcotest.test_case "errors" `Quick test_units_errors;
          Alcotest.test_case "is_number" `Quick test_units_is_number;
          QCheck_alcotest.to_alcotest prop_format_roundtrip;
        ] );
      ( "expr",
        [
          Alcotest.test_case "arithmetic" `Quick test_expr_arith;
          Alcotest.test_case "vars and calls" `Quick test_expr_vars_calls;
          Alcotest.test_case "dotted refs" `Quick test_expr_refs;
          Alcotest.test_case "subst" `Quick test_expr_subst;
          Alcotest.test_case "division by zero" `Quick test_expr_division_by_zero;
          Alcotest.test_case "parse errors" `Quick test_expr_parse_errors;
          Alcotest.test_case "size" `Quick test_expr_size;
        ] );
    ]
