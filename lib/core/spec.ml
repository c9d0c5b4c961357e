(* The spec language of LANGUAGE.md §4–5, resolved once and interpreted
   by both engines. See spec.mli. *)

exception Failed of string

type ports = { out_pos : int; out_neg : int option; src : string }

type tf = {
  tf_name : string;
  tf_jig : int;
  tf_ports : ports;
  tf_tran : Netlist.Ast.tran_card option;
}

type dev = { dev_name : string; dev_elem : int }
type field = Mos_field of (Devices.Sig.mos_op -> float) | Bjt_field of (Devices.Sig.bjt_op -> float)
type vsrc = { vs_name : string; vs_np : int }
type math = Min | Max | Abs | Sqrt | Log10 | Ln | Exp | Db

type t =
  | Const of float
  | Var of int
  | Neg of t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Pow of t * t
  | Math of math * t list
  | Op of dev * field
  | Dc_gain of tf
  | Ugf of tf
  | Pm of tf
  | Gain_at of tf * t
  | Bw3db of tf
  | Pole1 of tf
  | Gain_margin_db of tf
  | Slew_rate of tf
  | Settle of tf * t
  | Noise_out_uv of tf
  | Psrr_db of tf * tf
  | Area
  | Power
  | Supply_current of vsrc

(* --- The tables --- *)

(* Math builtins (§4), usable in every expression: name, arity. *)
let math_functions =
  [
    ("min", (Min, 2));
    ("max", (Max, 2));
    ("abs", (Abs, 1));
    ("sqrt", (Sqrt, 1));
    ("log10", (Log10, 1));
    ("ln", (Ln, 1));
    ("exp", (Exp, 1));
    ("db", (Db, 1));
  ]

(* Measurement functions (§5.1–5.2), spec expressions only: name and
   accepted arities. Argument kinds are [resolve_measurement]'s. *)
let measurements =
  [
    ("dc_gain", [ 1 ]);
    ("ugf", [ 1 ]);
    ("phase_margin", [ 1 ]);
    ("pm", [ 1 ]);
    ("gain_at", [ 2 ]);
    ("bw3db", [ 1 ]);
    ("pole1", [ 1 ]);
    ("gain_margin_db", [ 1 ]);
    ("slew_rate", [ 1 ]);
    ("settle", [ 1; 2 ]);
    ("noise_out_uv", [ 1 ]);
    ("psrr_db", [ 2 ]);
    ("area", [ 0 ]);
    ("power", [ 0 ]);
    ("supply_current", [ 1 ]);
  ]

let math_names = List.map fst math_functions
let measurement_names = List.map fst measurements

let mos_fields : (string * (Devices.Sig.mos_op -> float)) list =
  [
    ("id", fun o -> Float.abs o.Devices.Sig.id_);
    ("gm", fun o -> o.Devices.Sig.gm);
    ("gds", fun o -> o.Devices.Sig.gds);
    ("gmbs", fun o -> o.Devices.Sig.gmbs);
    ("vth", fun o -> o.Devices.Sig.vth);
    ("vdsat", fun o -> o.Devices.Sig.vdsat);
    ("vgst", fun o -> o.Devices.Sig.vgst);
    ("vds", fun o -> o.Devices.Sig.vds_mag);
    ("cgs", fun o -> o.Devices.Sig.cgs);
    ("cgd", fun o -> o.Devices.Sig.cgd);
    ("cgb", fun o -> o.Devices.Sig.cgb);
    ("cbd", fun o -> o.Devices.Sig.cbd);
    ("cbs", fun o -> o.Devices.Sig.cbs);
    ("cd", fun o -> o.Devices.Sig.cgd +. o.Devices.Sig.cbd);
    ("cs", fun o -> o.Devices.Sig.cgs +. o.Devices.Sig.cbs);
    ("cg", fun o -> o.Devices.Sig.cgs +. o.Devices.Sig.cgd +. o.Devices.Sig.cgb);
  ]

let bjt_fields : (string * (Devices.Sig.bjt_op -> float)) list =
  [
    ("ic", fun o -> Float.abs o.Devices.Sig.ic);
    ("ib", fun o -> Float.abs o.Devices.Sig.ib);
    ("gm", fun o -> o.Devices.Sig.bjt_gm);
    ("gpi", fun o -> o.Devices.Sig.gpi);
    ("go", fun o -> o.Devices.Sig.go);
    ("cpi", fun o -> o.Devices.Sig.cpi);
    ("cmu", fun o -> o.Devices.Sig.cmu);
    ("ccs", fun o -> o.Devices.Sig.ccs);
    ("vbe", fun o -> o.Devices.Sig.vbe_f);
  ]

let apply_math m args =
  match (m, args) with
  | Min, [ a; b ] -> Float.min a b
  | Max, [ a; b ] -> Float.max a b
  | Abs, [ a ] -> Float.abs a
  | Sqrt, [ a ] -> Float.sqrt a
  | Log10, [ a ] -> Float.log10 a
  | Ln, [ a ] -> Float.log a
  | Exp, [ a ] -> Float.exp a
  | Db, [ a ] -> 20.0 *. Float.log10 (Float.abs a +. 1e-300)
  | (Min | Max | Abs | Sqrt | Log10 | Ln | Exp | Db), _ ->
      raise (Netlist.Expr.Eval_error "math builtin: wrong number of arguments")

let math_call name args =
  match List.assoc_opt name math_functions with
  | Some (m, _) -> apply_math m args
  | None -> raise (Netlist.Expr.Eval_error ("unknown function " ^ name))

(* --- Resolution --- *)

type scope = {
  vars : string list;
  params : (string * Netlist.Expr.t) list;
  measure : (tf list * Netlist.Circuit.t) option;
}

exception Unresolved of string

let fail fmt = Printf.ksprintf (fun s -> raise (Unresolved s)) fmt

let default_settle_tol = 0.01

let rec resolve_in sc seen (e : Netlist.Expr.t) =
  let sub = resolve_in sc seen in
  match e with
  | Netlist.Expr.Const v -> Const v
  | Netlist.Expr.Ref [ name ] -> resolve_name sc seen name
  | Netlist.Expr.Ref path -> resolve_op sc path
  | Netlist.Expr.Neg a -> Neg (sub a)
  | Netlist.Expr.Add (a, b) -> Add (sub a, sub b)
  | Netlist.Expr.Sub (a, b) -> Sub (sub a, sub b)
  | Netlist.Expr.Mul (a, b) -> Mul (sub a, sub b)
  | Netlist.Expr.Div (a, b) -> Div (sub a, sub b)
  | Netlist.Expr.Pow (a, b) -> Pow (sub a, sub b)
  | Netlist.Expr.Call (name, args) -> (
      let n = List.length args in
      let arity ns =
        if not (List.mem n ns) then
          fail "%s takes %s argument%s, got %d" name
            (String.concat " or " (List.map string_of_int ns))
            (if ns = [ 1 ] then "" else "s")
            n
      in
      match (List.assoc_opt name math_functions, List.assoc_opt name measurements) with
      | Some (m, k), _ ->
          arity [ k ];
          Math (m, List.map sub args)
      | None, Some ns -> (
          match sc.measure with
          | None -> fail "%s() is only allowed in .obj/.spec expressions" name
          | Some (tfs, bias) ->
              arity ns;
              resolve_measurement sc seen ~tfs ~bias name args)
      | None, None -> fail "unknown function %s" name)

(* A bare name in number position: a variable's state slot, else its
   .param's expression inlined (a parameter is element-value context). *)
and resolve_name sc seen name =
  match List.find_index (String.equal name) sc.vars with
  | Some i -> Var i
  | None -> (
      match List.assoc_opt name sc.params with
      | Some e ->
          if List.mem name seen then fail "parameter cycle involving %s" name
          else resolve_in { sc with measure = None } (name :: seen) e
      | None -> fail "unknown name %s" name)

(* [dev.field]: a MOS or BJT of the bias network and one of its kind's
   fields. *)
and resolve_op sc path =
  let text = String.concat "." path in
  match (sc.measure, List.rev path) with
  | None, _ | _, [] -> fail "%s: device references are only allowed in .obj/.spec expressions" text
  | Some (_, bias), field :: rev_dev -> (
      let dev_name = String.concat "." (List.rev rev_dev) in
      let elems = bias.Netlist.Circuit.elements in
      let pick i fields mk =
        match List.assoc_opt field fields with
        | Some read -> Op ({ dev_name; dev_elem = i }, mk read)
        | None -> fail "%s: %s has no field %s" text dev_name field
      in
      let not_device () = fail "%s: %s is not a MOS or BJT of the bias network" text dev_name in
      match Array.find_index (fun e -> Netlist.Circuit.element_name e = dev_name) elems with
      | Some i -> (
          match elems.(i) with
          | Netlist.Circuit.Mosfet _ -> pick i mos_fields (fun r -> Mos_field r)
          | Netlist.Circuit.Bjt _ -> pick i bjt_fields (fun r -> Bjt_field r)
          | _ -> not_device ())
      | None -> not_device ())

(* The argument kinds of each measurement: a transfer-function name, a
   number, or a bias-network V source name. *)
and resolve_measurement sc seen ~tfs ~bias name args =
  (* A name argument: [find] resolves it, and it must not also read as a
     number. *)
  let named what find a =
    match a with
    | Netlist.Expr.Ref [ s ] ->
        let x =
          match find s with Some x -> x | None -> fail "%s(%s): %s is not a %s" name s s what
        in
        if List.mem s sc.vars then fail "%s(%s): %s is both a %s and a variable" name s s what;
        if List.mem_assoc s sc.params then
          fail "%s(%s): %s is both a %s and a parameter" name s s what;
        x
    | _ -> fail "%s expects a %s name" name what
  in
  let tf a = named "transfer function" (fun s -> List.find_opt (fun t -> t.tf_name = s) tfs) a in
  let tran a =
    let t = tf a in
    if t.tf_tran = None then fail "%s(%s): the jig of %s has no .tran card" name t.tf_name t.tf_name;
    t
  in
  let num = resolve_in sc seen in
  let vsource s =
    match Netlist.Circuit.find_element bias s with
    | Netlist.Circuit.Vsource { np; _ } -> Some { vs_name = s; vs_np = np }
    | _ | (exception Not_found) -> None
  in
  match (name, args) with
  | "dc_gain", [ a ] -> Dc_gain (tf a)
  | "ugf", [ a ] -> Ugf (tf a)
  | ("phase_margin" | "pm"), [ a ] -> Pm (tf a)
  | "gain_at", [ a; f ] -> Gain_at (tf a, num f)
  | "bw3db", [ a ] -> Bw3db (tf a)
  | "pole1", [ a ] -> Pole1 (tf a)
  | "gain_margin_db", [ a ] -> Gain_margin_db (tf a)
  | "slew_rate", [ a ] -> Slew_rate (tran a)
  | "settle", [ a ] -> Settle (tran a, Const default_settle_tol)
  | "settle", [ a; tol ] -> Settle (tran a, num tol)
  | "noise_out_uv", [ a ] -> Noise_out_uv (tf a)
  | "psrr_db", [ a; b ] -> Psrr_db (tf a, tf b)
  | "area", [] -> Area
  | "power", [] -> Power
  | "supply_current", [ a ] -> Supply_current (named "V source of the bias network" vsource a)
  | _ -> fail "%s: no measurement for these arguments" name

let resolve ?param sc e =
  try Ok (resolve_in sc (Option.to_list param) e) with Unresolved m -> Error m

(* --- What an expression reads --- *)

let rec fold f acc e =
  let acc = f acc e in
  match e with
  | Const _ | Var _ | Op _ | Dc_gain _ | Ugf _ | Pm _ | Bw3db _ | Pole1 _ | Gain_margin_db _
  | Slew_rate _ | Noise_out_uv _ | Psrr_db _ | Area | Power | Supply_current _ ->
      acc
  | Neg a | Gain_at (_, a) | Settle (_, a) -> fold f acc a
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) | Pow (a, b) -> fold f (fold f acc a) b
  | Math (_, args) -> List.fold_left (fold f) acc args

type deps = { d_vars : int list; d_elems : int list; d_jigs : int list; d_bias : bool }

let deps e =
  let vars, elems, jigs, bias =
    fold
      (fun ((vars, elems, jigs, bias) as acc) node ->
        match node with
        | Var i -> (i :: vars, elems, jigs, bias)
        | Op (d, _) -> (vars, d.dev_elem :: elems, jigs, bias)
        | Dc_gain tf | Ugf tf | Pm tf | Gain_at (tf, _) | Bw3db tf | Pole1 tf | Gain_margin_db tf
        | Slew_rate tf | Settle (tf, _) | Noise_out_uv tf ->
            (vars, elems, tf.tf_jig :: jigs, bias)
        | Psrr_db (a, b) -> (vars, elems, a.tf_jig :: b.tf_jig :: jigs, bias)
        | Area | Power | Supply_current _ -> (vars, elems, jigs, true)
        | Const _ | Neg _ | Add _ | Sub _ | Mul _ | Div _ | Pow _ | Math _ -> acc)
      ([], [], [], false) e
  in
  let set = List.sort_uniq Int.compare in
  { d_vars = set vars; d_elems = set elems; d_jigs = set jigs; d_bias = bias }

let uses_transient e =
  fold (fun acc n -> acc || match n with Slew_rate _ | Settle _ -> true | _ -> false) false e

(* --- Evaluation --- *)

type wave = { times : float array; v : float array; t_step : float; t_stop : float }

type backend = {
  op : dev -> Mna.Dc.op_info;
  dc_gain : tf -> float;
  ugf : tf -> float option;
  pm : tf -> float option;
  gain_at : tf -> float -> float;
  bw3db : tf -> float option;
  rom : tf -> (Awe.Rom.t, string) result;
  step : tf -> wave;
  noise_density : tf -> float;
  area : unit -> float;
  power : unit -> float;
  supply_current : vsrc -> float;
}

let read_field d field (op : Mna.Dc.op_info) =
  match (field, op) with
  | Mos_field read, Mna.Dc.Mos_op o -> read o
  | Bjt_field read, Mna.Dc.Bjt_op o -> read o
  | Mos_field _, Mna.Dc.Bjt_op _ | Bjt_field _, Mna.Dc.Mos_op _ ->
      raise (Failed (d.dev_name ^ ": operating point of the other device kind"))

(* Poles and gain margin read an AWE model of the transfer function on
   either engine. *)
let rom b what tf = match b.rom tf with Ok r -> r | Error e -> raise (Failed (what ^ ": " ^ e))

let rec eval_at (b : backend) (values : float array) e =
  match e with
  | Const v -> v
  | Var i -> values.(i)
  | Neg a -> -.eval_at b values a
  | Add (x, y) -> eval_at b values x +. eval_at b values y
  | Sub (x, y) -> eval_at b values x -. eval_at b values y
  | Mul (x, y) -> eval_at b values x *. eval_at b values y
  | Div (x, y) ->
      let d = eval_at b values y in
      if d = 0.0 then raise (Netlist.Expr.Eval_error "division by zero") else eval_at b values x /. d
  | Pow (x, y) -> Float.pow (eval_at b values x) (eval_at b values y)
  | Math (m, args) -> apply_math m (List.map (eval_at b values) args)
  | Op (d, field) -> read_field d field (b.op d)
  | Dc_gain tf -> b.dc_gain tf
  | Ugf tf -> Option.value ~default:0.0 (b.ugf tf)
  | Pm tf -> Option.value ~default:180.0 (b.pm tf)
  | Gain_at (tf, f) ->
      let f = eval_at b values f in
      b.gain_at tf f
  | Bw3db tf -> Option.value ~default:0.0 (b.bw3db tf)
  | Pole1 tf -> Option.value ~default:0.0 (Awe.Rom.dominant_pole_hz (rom b "pole1" tf))
  | Gain_margin_db tf ->
      Option.value ~default:60.0 (Awe.Rom.gain_margin_db (rom b "gain_margin_db" tf))
  | Slew_rate tf ->
      let w = b.step tf in
      Mna.Tran.peak_slew ~times:w.times w.v ~t_from:w.t_step ~t_to:w.t_stop
  | Settle (tf, tol) ->
      let tol = eval_at b values tol in
      let w = b.step tf in
      Mna.Tran.settling_time ~times:w.times w.v ~t_from:w.t_step ~tol
  | Noise_out_uv tf ->
      (* dc output noise density over the first-order equivalent noise
         bandwidth, pi/2 times the -3 dB bandwidth *)
      let enbw =
        match b.bw3db tf with
        | Some bw when bw > 0.0 -> Float.pi /. 2.0 *. bw
        | Some _ | None -> raise (Failed (tf.tf_name ^ ": noise bandwidth unavailable"))
      in
      let s0 = b.noise_density tf in
      Float.sqrt (Float.max 0.0 (s0 *. enbw)) *. 1e6
  | Psrr_db (sg, sup) ->
      (* a vanishing supply gain caps the ratio at 300 dB *)
      let a_sig = Float.abs (b.dc_gain sg) in
      let a_sup = Float.abs (b.dc_gain sup) in
      if a_sup < 1e-30 then 300.0 else 20.0 *. Float.log10 (Float.max a_sig 1e-30 /. a_sup)
  | Area -> b.area ()
  | Power -> b.power ()
  | Supply_current src -> Float.abs (b.supply_current src)

let eval b (st : State.t) e = eval_at b st.State.values e

(* Element values read no engine primitive: {!resolve} without [measure]
   builds no measurement. *)
let no_engine =
  let none _ = raise (Failed "an element value reads no measurement") in
  {
    op = none;
    dc_gain = none;
    ugf = none;
    pm = none;
    gain_at = (fun _ -> none);
    bw3db = none;
    rom = none;
    step = none;
    noise_density = none;
    area = none;
    power = none;
    supply_current = none;
  }

let value_env names values =
  let lookup = function
    | [ name ] -> eval_at no_engine (values ()) (Hashtbl.find names name)
    | _ -> raise Not_found
  in
  { Netlist.Expr.lookup; call = math_call }
