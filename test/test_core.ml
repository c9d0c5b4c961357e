(* Tests for the ASTRX compiler and OBLX machinery: tree-link analysis,
   device templates, compilation of the whole benchmark suite, cost
   evaluation, Newton-Raphson moves, adaptive weights. *)

let circuit src = Netlist.Elab.flatten ~subckts:[] (Netlist.Parser.parse_elements src)
let registry = Result.get_ok (Devices.Registry.build ~process:"p1u2" [])

(* --- Treelink --- *)

let test_treelink_fixed_and_free () =
  (* vdd fixes node a; node mid (between resistors) is free. *)
  let c = circuit "vdd a 0 5\nr1 a mid 1k\nr2 mid 0 1k\n" in
  let tl = Core.Treelink.analyze c in
  Alcotest.(check int) "one free var" 1 tl.Core.Treelink.n_free;
  (match tl.Core.Treelink.of_node.(Netlist.Circuit.find_node c "a") with
  | Core.Treelink.Fixed _ -> ()
  | Core.Treelink.Free _ -> Alcotest.fail "a should be fixed");
  match tl.Core.Treelink.of_node.(Netlist.Circuit.find_node c "mid") with
  | Core.Treelink.Free _ -> ()
  | Core.Treelink.Fixed _ -> Alcotest.fail "mid should be free"

let test_treelink_chained_sources () =
  (* Stacked sources: 0 -> a (5V) -> b (a+2). Both fixed. *)
  let c = circuit "v1 a 0 5\nv2 b a 2\nr1 b 0 1k\n" in
  let tl = Core.Treelink.analyze c in
  Alcotest.(check int) "no free vars" 0 tl.Core.Treelink.n_free

let test_treelink_supernode () =
  (* A floating source ties two otherwise-free nodes into one variable. *)
  let c = circuit "i1 0 x 1m\nvf y x 1\nr1 x 0 1k\nr2 y 0 1k\n" in
  let tl = Core.Treelink.analyze c in
  Alcotest.(check int) "one supernode var" 1 tl.Core.Treelink.n_free;
  let kx =
    match tl.Core.Treelink.of_node.(Netlist.Circuit.find_node c "x") with
    | Core.Treelink.Free (k, _) -> k
    | Core.Treelink.Fixed _ -> Alcotest.fail "x free"
  in
  match tl.Core.Treelink.of_node.(Netlist.Circuit.find_node c "y") with
  | Core.Treelink.Free (k, _) -> Alcotest.(check int) "same group" kx k
  | Core.Treelink.Fixed _ -> Alcotest.fail "y free"

(* --- Template expansion --- *)

let test_template_adds_internal_nodes () =
  let c = circuit "m1 d g s b nmos w=10u l=2u\n" in
  let before_nodes = Netlist.Circuit.node_count c in
  let e = Core.Template.expand ~registry c in
  Alcotest.(check int) "adds 2 nodes" (before_nodes + 2) (Netlist.Circuit.node_count e);
  Alcotest.(check int) "adds 2 resistors" 3 (Netlist.Circuit.element_count e);
  (* The channel element now connects to the internal nodes. *)
  match Netlist.Circuit.find_element e "m1" with
  | Netlist.Circuit.Mosfet { d; s; _ } ->
      let di = Netlist.Circuit.find_node e "m1#d" and si = Netlist.Circuit.find_node e "m1#s" in
      Alcotest.(check int) "drain internal" di d;
      Alcotest.(check int) "source internal" si s
  | _ -> Alcotest.fail "m1 missing"

(* --- Compilation of the full suite --- *)

let compile_suite name =
  let e = Option.get (Suite.Ckts.find name) in
  match Core.Compile.compile_source e.Suite.Ckts.source with
  | Ok p -> p
  | Error msg -> Alcotest.failf "%s: %s" name msg

let test_compile_all_suite () =
  List.iter
    (fun (e : Suite.Ckts.entry) -> ignore (compile_suite e.name))
    Suite.Ckts.all

let test_compile_simple_ota_analysis () =
  let p = compile_suite "simple-ota" in
  let a = p.Core.Problem.analysis in
  Alcotest.(check int) "7 user vars (paper: 7)" 7 a.Core.Problem.n_user_vars;
  (* Internal template nodes make added voltages outnumber user vars, as
     the paper reports. *)
  Alcotest.(check bool) "node vars > user vars" true (a.n_node_vars > a.n_user_vars);
  Alcotest.(check bool) "terms counted" true (a.n_cost_terms > 20);
  Alcotest.(check bool) "lines-of-C metric" true (a.lines_of_c > 300)

let test_compile_errors () =
  let bad src =
    match Core.Compile.compile_source src with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected compile error"
  in
  (* no bias block *)
  bad ".jig j\nvin a 0 0 ac 1\nr1 a 0 1k\n.pz t v(a) vin\n.endjig\n.obj o 'dc_gain(t)' good=1 bad=0\n";
  (* unknown transfer function in spec *)
  bad
    ".jig j\nvin a 0 0 ac 1\nr1 a 0 1k\n.pz t v(a) vin\n.endjig\n.bias\nr1 a 0 1k\n.endbias\n.obj o 'dc_gain(zzz)' good=1 bad=0\n";
  (* unknown node in .pz *)
  bad
    ".jig j\nvin a 0 0 ac 1\nr1 a 0 1k\n.pz t v(nope) vin\n.endjig\n.bias\nr1 a 0 1k\n.endbias\n.obj o 'dc_gain(t)' good=1 bad=0\n";
  (* spec with good = bad *)
  bad
    ".jig j\nvin a 0 0 ac 1\nr1 a 0 1k\n.pz t v(a) vin\n.endjig\n.bias\nr1 a 0 1k\n.endbias\n.obj o 'dc_gain(t)' good=1 bad=1\n";
  (* jig device with no bias counterpart *)
  bad
    (".jig j\nvin g 0 2 ac 1\nvd d0 0 5\nm9 d0 g 0 0 nmos w=10u l=2u\n.pz t v(d0) vin\n.endjig\n"
   ^ ".bias\nr1 a 0 1k\n.endbias\n.obj o 'dc_gain(t)' good=1 bad=0\n.process p1u2\n")

(* Every name in a spec expression, an element value or a .param
   resolves at compile time (LANGUAGE.md §6): a dotted reference must name
   a MOS or BJT of the bias network and one of its fields, a function must
   exist with the right arity and argument kinds, and element values take
   variables, parameters and math builtins only. Each row edits one suite
   source and expects an error naming the card and the name. *)
let test_compile_device_refs () =
  let contains hay needle =
    let n = String.length needle in
    let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  let replace src a b =
    let i =
      let n = String.length a in
      let rec go i = if String.sub src i n = a then i else go (i + 1) in
      go 0
    in
    String.sub src 0 i ^ b ^ String.sub src (i + String.length a) (String.length src - i - String.length a)
  in
  List.iter
    (fun (ckt, a, b, expect) ->
      let src = (Option.get (Suite.Ckts.find ckt)).Suite.Ckts.source in
      match Core.Compile.compile_source (replace src a b) with
      | Ok _ -> Alcotest.failf "%s: %s compiled" ckt b
      | Error e ->
          Alcotest.(check bool) (Printf.sprintf "%S names %S" e expect) true (contains e expect))
    [
      ("simple-ota", "xamp.m2.cd", "xamp.m9.cd", "spec sr: xamp.m9.cd: xamp.m9 is not a MOS or BJT");
      ("simple-ota", "xamp.m2.cd", "xamp.m2.ic", "spec sr: xamp.m2.ic: xamp.m2 has no field ic");
      ("simple-ota", "xamp.m2.cd", "vdd.cd", "spec sr: vdd.cd: vdd is not a MOS or BJT");
      ( "simple-ota",
        "'db(dc_gain(tf))'",
        "'db(dc_gain(tf, 3))'",
        "spec adm: dc_gain takes 1 argument, got 2" );
      ("simple-ota", "'ugf(tf)'", "'ugf(tf, 3)'", "spec ugf: ugf takes 1 argument, got 2");
      ("simple-ota", "'phase_margin(tf)'", "'gain_at(tf)'", "spec pm: gain_at takes 2 arguments, got 1");
      ( "simple-ota",
        "'power()'",
        "'supply_current(nosuch)'",
        "spec pwr: supply_current(nosuch): nosuch is not a V source" );
      ("simple-ota", "'area()'", "'area(3)'", "spec area: area takes 0 arguments, got 1");
      ("simple-ota", "'db(dc_gain(tf))'", "'db(1, 2)'", "spec adm: db takes 1 argument, got 2");
      ("simple-ota", "'power()'", "'nosuchparam - 1'", "spec pwr: unknown name nosuchparam");
      ( "simple-ota",
        ".param cl=1p",
        ".param cl=1p\n.param tf=1",
        "spec adm: dc_gain(tf): tf is both a transfer function and a parameter" );
      ("simple-ota", "'ib'", "'ib * foo(2)'", "bias network: xamp.iref: unknown function foo");
      ( "simple-ota",
        "w='w1'",
        "w='xamp.m2.gm'",
        "bias network: xamp.m1: xamp.m2.gm: device references are only allowed in .obj/.spec" );
      ("simple-ota", ".param vddval=5\n", "", "bias network: vdd: unknown name vddval");
      ( "simple-ota",
        "cl1 out 0 'cl'\n.endbias",
        "cl1 out 0 'area()'\n.endbias",
        "bias network: cl1: area() is only allowed in .obj/.spec" );
      ("simple-ota", "w='w5'", "w='0'", "bias network: xamp.m5: width 0 = 0 is not positive");
      ( "simple-ota",
        "m6 bp bp vss vss nmos w='w5' l='l5'\niref vdd bp 'ib'\n.ends",
        "m6 bp bp vss vss nmos w='wz' l='l5'\niref vdd bp 'ib'\n.ends\n.param wz=0",
        "bias network: xamp.m6: width wz = 0 is not positive" );
      ( "bicmos-two-stage",
        "q1 out n2 vss npn 'qarea'",
        "q1 out n2 vss npn'qarea'",
        "q1: unknown device model \"npnqarea\"" );
      ( "bicmos-two-stage",
        "m6 out nbp vdd vdd pmos",
        "m6 out nbp vdd vdd npn",
        "m6: MOS element with BJT model \"npn\"" );
    ]

(* The .ast front end over mutated suite sources: whatever the mutation,
   compiling returns [Ok] or [Error] and never raises, and a source that
   compiles has every name resolved — its first evaluation raises no
   unknown-reference, unknown-function or unknown-model error. *)
let mutate src (kind, pos, c) =
  let n = String.length src in
  let at = if n = 0 then 0 else pos mod n in
  let lines () = Array.of_list (String.split_on_char '\n' src) in
  match kind with
  | 0 -> String.sub src 0 at
  | 1 -> String.sub src 0 at ^ String.sub src (at + 1) (n - at - 1)
  | 2 -> String.sub src 0 at ^ String.make 1 c ^ String.sub src at (n - at)
  | 3 ->
      let ls = lines () in
      let k = pos mod Array.length ls in
      String.concat "\n" (List.filteri (fun i _ -> i <> k) (Array.to_list ls))
  | 4 ->
      let ls = lines () in
      let k = pos mod Array.length ls in
      let k' = (k + 1) mod Array.length ls in
      let l = ls.(k) in
      ls.(k) <- ls.(k');
      ls.(k') <- l;
      String.concat "\n" (Array.to_list ls)
  | _ -> String.sub src 0 at ^ String.make 200 '(' ^ String.sub src at (n - at)

let prop_mutated_sources_compile_or_error =
  QCheck.Test.make ~name:"mutated suite sources compile or return an error" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(triple int int char)
       QCheck.Gen.(triple (int_bound 5) nat char))
    (fun m ->
      List.for_all
        (fun (e : Suite.Ckts.entry) ->
          match Core.Compile.compile_source (mutate e.Suite.Ckts.source m) with
          | Error _ -> true
          | Ok p -> (
              let unresolved msg =
                QCheck.Test.fail_reportf "%s: compiled, then Eval.cost raised %s" e.Suite.Ckts.name
                  msg
              in
              match Core.Eval.cost p (Core.Weights.create ()) p.Core.Problem.state0 with
              | _ -> true
              | exception Netlist.Expr.Eval_error msg when String.starts_with ~prefix:"unknown" msg
                ->
                  unresolved msg
              | exception Failure msg when String.starts_with ~prefix:"unknown device model" msg ->
                  unresolved msg
              | exception _ -> true)
          | exception ex ->
              QCheck.Test.fail_reportf "%s: compile_source raised %s" e.Suite.Ckts.name
                (Printexc.to_string ex))
        Suite.Ckts.all)

(* A digitless literal ([min=.u]) in a suite source is a line-located
   parse error: it used to escape the compiler as [Failure]. *)
let test_compile_digitless_number () =
  let src = (Option.get (Suite.Ckts.find "simple-ota")).Suite.Ckts.source in
  let line = ref 0 in
  let lines =
    List.mapi
      (fun i l ->
        if !line = 0 && String.starts_with ~prefix:".var " l then begin
          line := i + 1;
          String.split_on_char ' ' l
          |> List.map (fun tok -> if String.starts_with ~prefix:"min=" tok then "min=.u" else tok)
          |> String.concat " "
        end
        else l)
      (String.split_on_char '\n' src)
  in
  let expect = Printf.sprintf "line %d:" !line in
  match Core.Compile.compile_source (String.concat "\n" lines) with
  | Ok _ -> Alcotest.fail "min=.u must not compile"
  | Error e ->
      let found =
        let n = String.length expect in
        let rec go i = i + n <= String.length e && (String.sub e i n = expect || go (i + 1)) in
        go 0
      in
      if not found then Alcotest.failf "error %S does not name %s" e expect
  | exception ex -> Alcotest.failf "compile_source raised %s" (Printexc.to_string ex)

(* --- State --- *)

(* docs/LANGUAGE.md names the spec language's functions and fields; they
   must be exactly Spec's tables: §4's builtins, §5.1–5.2's measurement
   functions (each table's first column) and §5.3's MOS/BJT fields. *)
let test_language_doc_matches_spec () =
  let lines =
    In_channel.with_open_text "../docs/LANGUAGE.md" In_channel.input_all |> String.split_on_char '\n'
  in
  (* the lines after the heading starting with [from], up to the next
     heading starting with [until] *)
  let section from until =
    let rec skip = function
      | [] -> Alcotest.failf "LANGUAGE.md: no heading %S" from
      | l :: rest -> if String.starts_with ~prefix:from l then rest else skip rest
    in
    let rec take acc = function
      | l :: rest when not (String.starts_with ~prefix:until l) -> take (l :: acc) rest
      | _ -> List.rev acc
    in
    take [] (skip lines)
  in
  let ticked s =
    match String.split_on_char '`' s with
    | _ :: rest -> List.filteri (fun i _ -> i mod 2 = 0) rest
    | [] -> []
  in
  (* the identifier [s] starts with *)
  let ident s =
    let word = function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false in
    let rec go i = if i < String.length s && word s.[i] then go (i + 1) else i in
    String.sub s 0 (go 0)
  in
  (* the function names in the first column of a section's tables *)
  let table_functions sec =
    List.concat_map
      (fun l ->
        match String.split_on_char '|' l with
        | "" :: first :: _ -> List.map ident (ticked first)
        | _ -> [])
      sec
  in
  (* the plain identifiers quoted in the paragraph starting with [lead] *)
  let fields lead sec =
    let rec from = function
      | [] -> Alcotest.failf "LANGUAGE.md: no %S paragraph" lead
      | l :: rest -> if String.starts_with ~prefix:lead l then l :: rest else from rest
    in
    let rec para = function l :: rest when String.trim l <> "" -> l :: para rest | _ -> [] in
    List.concat_map ticked (para (from sec)) |> List.filter (fun t -> t <> "" && ident t = t)
  in
  let same what doc code =
    Alcotest.(check (list string)) what (List.sort_uniq compare code) (List.sort_uniq compare doc)
  in
  same "§4 builtins" (table_functions (section "## 4." "## 5.")) Core.Spec.math_names;
  same "§5.1-5.2 functions" (table_functions (section "### 5.1" "### 5.3")) Core.Spec.measurement_names;
  let s53 = section "### 5.3" "## 6." in
  same "§5.3 MOS fields" (fields "MOS fields:" s53) (List.map fst Core.Spec.mos_fields);
  same "§5.3 BJT fields" (fields "BJT fields:" s53) (List.map fst Core.Spec.bjt_fields)

let test_state_grid () =
  let info =
    [|
      Core.State.User
        { name = "w"; vmin = 1e-6; vmax = 1e-4; grid = Core.State.Log_grid; steps = Some 21 };
      Core.State.User { name = "v"; vmin = 0.0; vmax = 5.0; grid = Core.State.Lin_grid; steps = None };
    |]
  in
  let st = Core.State.create info in
  (* Discrete var starts on the grid at the geometric midpoint. *)
  Alcotest.(check int) "mid slot" 10 st.Core.State.grid_index.(0);
  Alcotest.(check bool) "value on grid" true (Float.abs (st.values.(0) -. 1e-5) < 1e-9);
  (* Stepping the grid moves by the log step. *)
  ignore (Core.State.set_grid_slot st 0 11);
  let ratio = st.values.(0) /. 1e-5 in
  Alcotest.(check bool) "log step ratio" true (Float.abs (ratio -. (100.0 ** 0.05)) < 1e-6);
  (* Clamping at the ends. *)
  ignore (Core.State.set_grid_slot st 0 999);
  Alcotest.(check int) "clamped high" 20 st.grid_index.(0);
  (* Continuous clamp. *)
  Core.State.set_initial st 1 7.0;
  Alcotest.(check (float 0.0)) "clamped" 5.0 st.values.(1);
  (* Snapshot/restore round-trip. *)
  let snap = Core.State.snapshot st in
  Core.State.set_initial st 1 1.0;
  Core.State.restore ~from:snap st;
  Alcotest.(check (float 0.0)) "restored" 5.0 st.values.(1)

(* --- Cost evaluation and Newton moves on the simple OTA --- *)

let test_eval_kcl_zero_after_newton () =
  let p = compile_suite "simple-ota" in
  let st = Core.State.snapshot p.Core.Problem.state0 in
  (* Drive the node voltages to dc-correctness: global solve to get into
     the Newton basin, then iterate the relaxed-dc NR step. *)
  Alcotest.(check bool) "global solve works" true (Core.Moves.newton_global p st);
  let rec iterate n =
    if n > 0 then begin
      match Core.Moves.newton_step p st ~damping:1.0 with
      | Some change when change > 1e-12 -> iterate (n - 1)
      | Some _ | None -> ()
    end
  in
  iterate 60;
  let bp = Core.Eval.bias_point p st in
  let worst = Array.fold_left (fun acc r -> Float.max acc (Float.abs r)) 0.0 bp.Core.Eval.residuals in
  Alcotest.(check bool) "KCL < 1 pA" true (worst < 1e-12);
  (* And the relaxed voltages agree with the reference simulator. *)
  match Core.Verify.bias_voltage_error p st with
  | Ok e -> Alcotest.(check bool) "voltages match NR solve" true (e < 1e-5)
  | Error msg -> Alcotest.failf "verify: %s" msg

let test_eval_cost_decomposition () =
  let p = compile_suite "simple-ota" in
  let w = Core.Weights.create () in
  let bd = Core.Eval.cost p w p.Core.Problem.state0 in
  Alcotest.(check bool) "penalties nonneg" true
    (bd.Core.Eval.c_perf >= 0.0 && bd.c_dev >= 0.0 && bd.c_dc >= 0.0);
  Alcotest.(check (float 1e-9)) "total is the sum"
    (bd.c_obj +. bd.c_perf +. bd.c_dev +. bd.c_dc)
    bd.total

let test_eval_area_function () =
  let p = compile_suite "simple-ota" in
  let st = p.Core.Problem.state0 in
  let area = Core.Eval.active_area_um2 p st in
  (* 6 devices, each w*l at the grid midpoints: just sanity bounds. *)
  Alcotest.(check bool) "positive and sane" true (area > 10.0 && area < 1e6)

let test_weights_ratchet () =
  let w = Core.Weights.create () in
  for _ = 1 to 50 do
    Core.Weights.update w ~progress:0.8 ~perf:1.0 ~dev:0.0 ~dc:1.0
  done;
  Alcotest.(check bool) "violated groups grow" true (w.Core.Weights.w_perf > 5.0);
  Alcotest.(check bool) "dc grows" true (w.w_dc > 5.0);
  Alcotest.(check bool) "satisfied group near 1" true (w.w_dev <= 1.0 +. 1e-9);
  for _ = 1 to 10000 do
    Core.Weights.update w ~progress:0.9 ~perf:1.0 ~dev:0.0 ~dc:0.0
  done;
  Alcotest.(check bool) "capped" true (w.w_perf <= 1e4 +. 1.0)

let test_weights_relax_when_satisfied () =
  let w = Core.Weights.create () in
  for _ = 1 to 60 do
    Core.Weights.update w ~progress:0.8 ~perf:1.0 ~dev:1.0 ~dc:1.0
  done;
  let high = w.Core.Weights.w_perf in
  Alcotest.(check bool) "grew under violation" true (high > 100.0);
  (* Once the group is satisfied the weight relaxes multiplicatively. *)
  let prev = ref high in
  for _ = 1 to 200 do
    Core.Weights.update w ~progress:0.8 ~perf:0.0 ~dev:0.0 ~dc:0.0;
    Alcotest.(check bool) "monotone decay" true (w.Core.Weights.w_perf <= !prev +. 1e-12);
    prev := w.Core.Weights.w_perf
  done;
  Alcotest.(check (float 1e-9)) "one relax step is x0.995" (high *. (0.995 ** 200.0))
    w.Core.Weights.w_perf;
  (* Decay clamps at w_min = 1, never below. *)
  for _ = 1 to 100_000 do
    Core.Weights.update w ~progress:0.8 ~perf:0.0 ~dev:0.0 ~dc:0.0
  done;
  Alcotest.(check (float 0.0)) "floor at 1" 1.0 w.Core.Weights.w_perf;
  Alcotest.(check (float 0.0)) "dev floor at 1" 1.0 w.w_dev

let test_weights_gain_accelerates_with_progress () =
  (* The same violation pressure pushes harder near freeze-out than at the
     start of the anneal. *)
  let grow progress =
    let w = Core.Weights.create () in
    for _ = 1 to 20 do
      Core.Weights.update w ~progress ~perf:1.0 ~dev:0.0 ~dc:0.0
    done;
    w.Core.Weights.w_perf
  in
  let early = grow 0.1 and mid = grow 0.5 and late = grow 0.9 in
  Alcotest.(check bool) "early < mid" true (early < mid);
  Alcotest.(check bool) "mid < late" true (mid < late);
  Alcotest.(check (float 1e-9)) "early gain is 1.02^20" (1.02 ** 20.0) early;
  Alcotest.(check (float 1e-9)) "late gain is 1.15^20" (1.15 ** 20.0) late

let test_moves_undo_restores () =
  let p = compile_suite "simple-ota" in
  let ctx = Core.Moves.make p in
  let st = Core.State.snapshot p.Core.Problem.state0 in
  let rng = Anneal.Rng.create 2 in
  let reference = Core.State.snapshot st in
  for k = 0 to Array.length Core.Moves.classes - 1 do
    for _ = 1 to 20 do
      match Core.Moves.propose ctx st k rng with
      | Some undo ->
          undo ();
          Alcotest.(check bool)
            (Printf.sprintf "undo of class %d restores values" k)
            true
            (st.Core.State.values = reference.Core.State.values
            && st.grid_index = reference.grid_index)
      | None -> ()
    done
  done

let same_node_values p what (a : Core.State.t) (b : Core.State.t) =
  for i = Core.Problem.node_var_base p to Core.State.n_vars a - 1 do
    if
      not
        (Int64.equal
           (Int64.bits_of_float a.Core.State.values.(i))
           (Int64.bits_of_float b.Core.State.values.(i)))
    then Alcotest.failf "%s: variable %d: %h vs %h" what i a.values.(i) b.values.(i)
  done

(* The NR-full move keeps its last global solve: the solve reads only the
   user variables, so at repeated user bits (the move undone, or the node
   voltages moved in between) the move must leave the node values a fresh
   [newton_global] leaves on a copy. Near folded-cascode's start state
   the iterated Newton step stalls, so every NR-full move there
   escalates to the global solve. A failed solve (a NaN user variable)
   must be refused with the node values restored, whether the failure
   was computed or served. *)
let test_nr_full_memo () =
  let p = compile_suite "folded-cascode" in
  let ctx = Core.Moves.make p in
  let rng = Anneal.Rng.create 3 in
  let st = Core.State.snapshot p.Core.Problem.state0 in
  let nr_full ?(undo = false) what =
    let fresh = Core.State.snapshot st in
    Alcotest.(check bool) "global solve succeeds" true (Core.Moves.newton_global p fresh);
    match Core.Moves.propose ctx st 4 rng with
    | Some u ->
        same_node_values p what fresh st;
        if undo then u ()
    | None -> Alcotest.failf "%s: NR-full move refused" what
  in
  for _ = 1 to 3 do
    ignore (Core.Moves.propose ctx st 1 rng);
    nr_full ~undo:true "new user point";
    nr_full "same user point, undone";
    ignore (Core.Moves.propose ctx st 2 rng);
    nr_full "same user point, node voltage moved"
  done;
  st.Core.State.values.(0) <- Float.nan;
  for k = 1 to 2 do
    let before = Core.State.snapshot st in
    (match Core.Moves.propose ctx st 4 rng with
    | Some _ -> Alcotest.failf "failed solve %d: NR-full move accepted" k
    | None -> ());
    same_node_values p (Printf.sprintf "failed solve %d: node values restored" k) before st
  done

(* Everything an in-loop simulation reads of the state — every element
   value of the bias network and of each jig, and the tree-link node
   expressions — keeps its bits when only the node-voltage slice changes:
   the user-variable slice is a complete memo key for the NR-full global
   solve and for the in-loop transient. *)
let test_values_ignore_node_slice () =
  List.iter
    (fun (e : Suite.Ckts.entry) ->
      let p = compile_suite e.name in
      let exprs =
        List.concat_map
          (fun (c : Netlist.Circuit.t) ->
            List.concat_map Netlist.Circuit.values (Array.to_list c.Netlist.Circuit.elements))
          (p.Core.Problem.bias
          :: List.map (fun (j : Core.Problem.jig) -> j.Core.Problem.jig_circuit) p.Core.Problem.jigs)
        @ List.map
            (function Core.Treelink.Fixed x | Core.Treelink.Free (_, x) -> x)
            (Array.to_list p.Core.Problem.tl.Core.Treelink.of_node)
      in
      let read st =
        let env = Core.Eval.value_env p st in
        List.map
          (fun x ->
            match Netlist.Expr.eval env x with
            | v -> Ok (Int64.bits_of_float v)
            | exception ex -> Error (Printexc.to_string ex))
          exprs
      in
      let st = Core.State.snapshot p.Core.Problem.state0 in
      let rng = Anneal.Rng.create 5 in
      for _ = 1 to 3 do
        for i = 0 to Core.Problem.node_var_base p - 1 do
          let lo, hi = Core.State.bounds st.Core.State.info.(i) in
          st.values.(i) <- lo +. (Anneal.Rng.float rng *. (hi -. lo))
        done;
        let before = read st in
        List.iter
          (fun v ->
            for i = Core.Problem.node_var_base p to Core.State.n_vars st - 1 do
              st.values.(i) <- v
            done;
            if read st <> before then
              Alcotest.failf "%s: an element value reads the node-voltage slice" e.name)
          [ Float.nan; -0.0; 1e6; -3.7 ]
      done)
    Suite.Ckts.all

let test_oblx_short_run_deterministic () =
  let p = compile_suite "simple-ota" in
  let r1 = Core.Oblx.synthesize ~seed:4 ~moves:800 p in
  let r2 = Core.Oblx.synthesize ~seed:4 ~moves:800 p in
  Alcotest.(check (float 0.0)) "same seed, same result" r1.Core.Oblx.best_cost r2.best_cost;
  let r3 = Core.Oblx.synthesize ~seed:5 ~moves:800 p in
  Alcotest.(check bool) "different seed differs" true (r1.best_cost <> r3.Core.Oblx.best_cost)

let test_oblx_trace_collected () =
  let p = compile_suite "simple-ota" in
  let r = Core.Oblx.synthesize ~seed:6 ~moves:8000 p in
  Alcotest.(check bool) "trace nonempty" true (List.length r.Core.Oblx.trace > 2);
  (* Fig. 2 shape: the final KCL discrepancy sits well below the worst
     seen during optimization (individual stage samples are noisy, so
     compare the end against the peak, not point to point). *)
  let worst =
    List.fold_left (fun acc tp -> Float.max acc tp.Core.Oblx.tp_max_kcl_abs) 0.0 r.trace
  in
  (match List.rev r.trace with
  | last :: _ ->
      Alcotest.(check bool) "kcl ends below a tenth of its peak" true
        (last.Core.Oblx.tp_max_kcl_abs < 0.1 *. worst)
  | [] -> Alcotest.fail "trace");
  (* The NR-polished best design is dc-correct outright. *)
  match Core.Verify.kcl_abs_error p r.final with
  | Ok e -> Alcotest.(check bool) "polished KCL tiny" true (e < 1e-9)
  | Error msg -> Alcotest.failf "kcl: %s" msg

let test_report_eng () =
  Alcotest.(check string) "meg" "73.7meg" (Core.Report.eng 73.7e6);
  Alcotest.(check string) "micro" "2.5u" (Core.Report.eng 2.5e-6);
  Alcotest.(check string) "zero" "0" (Core.Report.eng 0.0)


let test_devregion_any_disables_penalty () =
  (* A .devregion card switching a device to "any" removes its region
     terms from the cost. *)
  let base = Suite.Simple_ota.source in
  let with_any = base ^ ".devregion xamp.m5 any\n" in
  match (Core.Compile.compile_source base, Core.Compile.compile_source with_any) with
  | Ok p0, Ok p1 ->
      Alcotest.(check int) "one fewer cost term"
        (p0.Core.Problem.analysis.Core.Problem.n_cost_terms - 1)
        p1.Core.Problem.analysis.Core.Problem.n_cost_terms
  | _, _ -> Alcotest.fail "compile"

let test_corner_compile_changes_prediction () =
  (* Compiling the same problem at a slow corner shifts measured specs. *)
  let slow = List.nth Core.Corners.standard 1 in
  match
    ( Core.Compile.compile_source Suite.Simple_ota.source,
      Core.Compile.compile_source ~corner:slow Suite.Simple_ota.source )
  with
  | Ok p0, Ok p1 ->
      let measure p =
        let st = Core.State.snapshot p.Core.Problem.state0 in
        ignore (Core.Moves.newton_global p st);
        let m = Core.Eval.measure p st in
        List.assoc "pwr" m.Core.Eval.spec_values
      in
      (match (measure p0, measure p1) with
      | Some a, Some b ->
          Alcotest.(check bool) "corner changes power" true
            (Float.abs (a -. b) > 1e-3 *. Float.abs a)
      | _, _ -> Alcotest.fail "measurement failed")
  | _, _ -> Alcotest.fail "compile"


let test_sized_netlist_roundtrip () =
  (* The exported deck parses back and simulates to the same bias point. *)
  let p = compile_suite "simple-ota" in
  let st = Core.State.snapshot p.Core.Problem.state0 in
  Alcotest.(check bool) "bias solves" true (Core.Moves.newton_global p st);
  let deck = Core.Report.sized_netlist p st in
  let element_lines =
    String.split_on_char '\n' deck
    |> List.filter (fun l -> String.length l > 0 && l.[0] <> '*' && l.[0] <> '.')
    |> String.concat "\n"
  in
  let elems = Netlist.Parser.parse_elements element_lines in
  let c = Netlist.Elab.flatten ~subckts:[] elems in
  let reg = p.Core.Problem.registry in
  let value e =
    Netlist.Expr.eval
      { Netlist.Expr.lookup = (fun _ -> raise Not_found); call = (fun _ _ -> nan) }
      e
  in
  match Mna.Dc.solve ~value ~registry:reg c with
  | Error e -> Alcotest.failf "re-simulation: %s" e
  | Ok sol ->
      (* The re-simulated output voltage matches the relaxed-dc state. *)
      let out = Netlist.Circuit.find_node c "out" in
      let orig_out = Netlist.Circuit.find_node p.Core.Problem.bias "out" in
      let v_orig = (Core.Eval.node_voltages p st).(orig_out) in
      Alcotest.(check bool) "output voltage within 50 mV" true
        (Float.abs (Mna.Dc.node_voltage sol out -. v_orig) < 0.05)

let () =
  Alcotest.run "core"
    [
      ( "treelink",
        [
          Alcotest.test_case "fixed and free" `Quick test_treelink_fixed_and_free;
          Alcotest.test_case "chained sources" `Quick test_treelink_chained_sources;
          Alcotest.test_case "supernode" `Quick test_treelink_supernode;
        ] );
      ("template", [ Alcotest.test_case "internal nodes" `Quick test_template_adds_internal_nodes ]);
      ( "compile",
        [
          Alcotest.test_case "whole suite compiles" `Quick test_compile_all_suite;
          Alcotest.test_case "simple-ota analysis" `Quick test_compile_simple_ota_analysis;
          Alcotest.test_case "errors" `Quick test_compile_errors;
          Alcotest.test_case "device references" `Quick test_compile_device_refs;
          Alcotest.test_case "digitless number is a located error" `Quick
            test_compile_digitless_number;
          QCheck_alcotest.to_alcotest prop_mutated_sources_compile_or_error;
          Alcotest.test_case "LANGUAGE.md names Spec's tables" `Quick
            test_language_doc_matches_spec;
        ] );
      ("state", [ Alcotest.test_case "grids and clamps" `Quick test_state_grid ]);
      ( "eval",
        [
          Alcotest.test_case "newton drives KCL to zero" `Quick test_eval_kcl_zero_after_newton;
          Alcotest.test_case "cost decomposition" `Quick test_eval_cost_decomposition;
          Alcotest.test_case "area function" `Quick test_eval_area_function;
        ] );
      ( "weights",
        [
          Alcotest.test_case "ratchet" `Quick test_weights_ratchet;
          Alcotest.test_case "relax when satisfied" `Quick test_weights_relax_when_satisfied;
          Alcotest.test_case "gain accelerates" `Quick test_weights_gain_accelerates_with_progress;
        ] );
      ( "oblx",
        [
          Alcotest.test_case "moves undo" `Quick test_moves_undo_restores;
          Alcotest.test_case "NR-full memo" `Quick test_nr_full_memo;
          Alcotest.test_case "element values ignore node voltages" `Quick
            test_values_ignore_node_slice;
          Alcotest.test_case "determinism" `Slow test_oblx_short_run_deterministic;
          Alcotest.test_case "trace (fig 2)" `Slow test_oblx_trace_collected;
        ] );
      ("report", [ Alcotest.test_case "eng format" `Quick test_report_eng ]);
      ( "features",
        [
          Alcotest.test_case "devregion any" `Quick test_devregion_any_disables_penalty;
          Alcotest.test_case "sized netlist roundtrip" `Quick test_sized_netlist_roundtrip;
          Alcotest.test_case "corner compile" `Quick test_corner_compile_changes_prediction;
        ] );
    ]
