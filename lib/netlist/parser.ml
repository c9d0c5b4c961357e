exception Error of int * string

let fail ln msg = raise (Error (ln, msg))

(* --- Logical lines: strip comments, join '+' continuations. --- *)

type lline = { ln : int; text : string }

let logical_lines src =
  let raw = String.split_on_char '\n' src in
  let cleaned =
    List.mapi
      (fun k line ->
        let line =
          match String.index_opt line ';' with
          | Some pos -> String.sub line 0 pos
          | None -> line
        in
        (k + 1, String.trim line))
      raw
  in
  let relevant (_, s) = String.length s > 0 && s.[0] <> '*' in
  let rec join acc = function
    | [] -> List.rev acc
    | (ln, s) :: rest when relevant (ln, s) ->
        if String.length s > 0 && s.[0] = '+' then
          match acc with
          | { ln = ln0; text } :: acc' ->
              join ({ ln = ln0; text = text ^ " " ^ String.sub s 1 (String.length s - 1) } :: acc')
                rest
          | [] -> fail ln "continuation '+' with no previous card"
        else join ({ ln; text = s } :: acc) rest
    | _ :: rest -> join acc rest
  in
  join [] cleaned

(* --- Card tokenizer: whitespace-separated fields; '...' quotes a single
   token (an expression, possibly containing spaces); name=value is kept as
   one token and split later. --- *)

let tokenize ln s =
  let n = String.length s in
  let toks = ref [] in
  let buf = Buffer.create 16 in
  let flush () =
    if Buffer.length buf > 0 then begin
      toks := Buffer.contents buf :: !toks;
      Buffer.clear buf
    end
  in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\t' then begin
      flush ();
      incr i
    end
    else if c = '\'' then begin
      let j = ref (!i + 1) in
      while !j < n && s.[!j] <> '\'' do
        incr j
      done;
      if !j >= n then fail ln "unterminated quoted expression";
      Buffer.add_string buf (String.sub s (!i + 1) (!j - !i - 1));
      i := !j + 1
    end
    else begin
      Buffer.add_char buf (Char.lowercase_ascii c);
      incr i
    end
  done;
  flush ();
  List.rev !toks

let split_eq tok =
  match String.index_opt tok '=' with
  | Some pos -> Some (String.sub tok 0 pos, String.sub tok (pos + 1) (String.length tok - pos - 1))
  | None -> None

let parse_expr_tok ln s =
  try Expr.parse s with Expr.Parse_error e -> fail ln ("bad expression: " ^ e)

let parse_num_tok ln s =
  match Units.parse s with Ok v -> v | Error e -> fail ln ("bad number: " ^ e)

(* --- Element cards --- *)

let parse_element ln toks =
  match toks with
  | [] -> fail ln "empty element card"
  | name :: rest -> begin
      let kind = name.[0] in
      let expr = parse_expr_tok ln in
      let kv_params rest =
        List.filter_map
          (fun tok ->
            match split_eq tok with Some (k, v) -> Some (k, expr v) | None -> None)
          rest
      in
      let kv_find rest key default =
        match List.assoc_opt key (kv_params rest) with Some e -> e | None -> default
      in
      match kind with
      | 'r' -> begin
          match rest with
          | [ n1; n2; v ] -> Ast.Resistor { name; n1; n2; value = expr v }
          | _ -> fail ln "resistor: expected 'rX n1 n2 value'"
        end
      | 'c' -> begin
          match rest with
          | [ n1; n2; v ] -> Ast.Capacitor { name; n1; n2; value = expr v }
          | _ -> fail ln "capacitor: expected 'cX n1 n2 value'"
        end
      | 'l' -> begin
          match rest with
          | [ n1; n2; v ] -> Ast.Inductor { name; n1; n2; value = expr v }
          | _ -> fail ln "inductor: expected 'lX n1 n2 value'"
        end
      | 'v' | 'i' -> begin
          (* vX n+ n- dc [ac mag] *)
          match rest with
          | np :: nn :: more ->
              let dc, ac =
                match more with
                | [] -> (Expr.const 0.0, 0.0)
                | [ d ] -> (expr d, 0.0)
                | [ d; "ac"; m ] -> (expr d, parse_num_tok ln m)
                | [ "ac"; m ] -> (Expr.const 0.0, parse_num_tok ln m)
                | _ -> fail ln "source: expected 'vX n+ n- dc [ac mag]'"
              in
              if kind = 'v' then Ast.Vsource { name; np; nn; dc; ac }
              else Ast.Isource { name; np; nn; dc; ac }
          | _ -> fail ln "source: missing nodes"
        end
      | 'e' -> begin
          match rest with
          | [ np; nn; ncp; ncn; g ] -> Ast.Vcvs { name; np; nn; ncp; ncn; gain = expr g }
          | _ -> fail ln "vcvs: expected 'eX n+ n- nc+ nc- gain'"
        end
      | 'g' -> begin
          match rest with
          | [ np; nn; ncp; ncn; g ] -> Ast.Vccs { name; np; nn; ncp; ncn; gm = expr g }
          | _ -> fail ln "vccs: expected 'gX n+ n- nc+ nc- gm'"
        end
      | 'f' -> begin
          match rest with
          | [ np; nn; vsrc; g ] -> Ast.Cccs { name; np; nn; vsrc; gain = expr g }
          | _ -> fail ln "cccs: expected 'fX n+ n- vsrc gain'"
        end
      | 'h' -> begin
          match rest with
          | [ np; nn; vsrc; r ] -> Ast.Ccvs { name; np; nn; vsrc; r = expr r }
          | _ -> fail ln "ccvs: expected 'hX n+ n- vsrc r'"
        end
      | 'm' -> begin
          match rest with
          | d :: g :: s :: b :: model :: params when split_eq model = None ->
              let kv = kv_params params in
              let req key =
                match List.assoc_opt key kv with
                | Some e -> e
                | None -> fail ln ("mosfet: missing " ^ key ^ "=")
              in
              let w = req "w" and l = req "l" in
              let mult = kv_find params "m" (Expr.const 1.0) in
              Ast.Mosfet { name; d; g; s; b; model; w; l; mult }
          | _ -> fail ln "mosfet: expected 'mX d g s b model w=.. l=..'"
        end
      | 'q' -> begin
          match rest with
          | c :: b :: e :: model :: more when split_eq model = None ->
              let area =
                match more with
                | [] -> Expr.const 1.0
                | [ a ] -> ( match split_eq a with Some (_, v) -> expr v | None -> expr a)
                | _ -> fail ln "bjt: expected 'qX c b e model [area]'"
              in
              Ast.Bjt { name; c; b; e; model; area }
          | _ -> fail ln "bjt: expected 'qX c b e model [area]'"
        end
      | 'x' -> begin
          (* xname n1 ... nk subckt [p=v ...] *)
          let plain, params = List.partition (fun tok -> split_eq tok = None) rest in
          match List.rev plain with
          | subckt :: rev_nodes when rev_nodes <> [] ->
              Ast.Subckt_inst
                { name; nodes = List.rev rev_nodes; subckt; params = kv_params params }
          | _ -> fail ln "subckt instance: expected 'xX n1 .. nk subname'"
        end
      | 'a' .. 'z' | '0' .. '9' | '_' ->
          fail ln (Printf.sprintf "unknown element type %C" kind)
      | _ -> fail ln (Printf.sprintf "unknown element type %C" kind)
    end

(* --- v(out) / v(out+,out-) in .pz cards --- *)

let parse_vout ln tok =
  let n = String.length tok in
  if n >= 3 && String.sub tok 0 2 = "v(" && tok.[n - 1] = ')' then begin
    let inner = String.sub tok 2 (n - 3) in
    match String.split_on_char ',' inner with
    | [ p ] -> (String.trim p, None)
    | [ p; m ] -> (String.trim p, Some (String.trim m))
    | _ -> fail ln "expected v(node) or v(node+,node-)"
  end
  else fail ln (Printf.sprintf "expected v(...) output, got %S" tok)

(* --- Problem-level parsing --- *)

type state = {
  mutable title : string;
  mutable subckts : Ast.subckt list;
  mutable models : Ast.model_decl list;
  mutable process : string option;
  mutable params : (string * Expr.t) list;
  mutable vars : Ast.var_decl list;
  mutable jigs : Ast.jig list;
  mutable bias : Ast.element list;
  mutable specs : Ast.spec list;
  mutable regions : (string * Ast.region_req) list;
  mutable netlist_lines : int;
  mutable synth_lines : int;
}

type mode =
  | Top
  | In_subckt of string * string list * Ast.element list ref
  | In_jig of string * Ast.element list ref * Ast.pz list ref * Ast.tran_card option ref
  | In_bias of Ast.element list ref

let parse_var ln toks =
  match toks with
  | name :: opts ->
      let get key =
        List.find_map
          (fun tok ->
            match split_eq tok with Some (k, v) when k = key -> Some v | Some _ | None -> None)
          opts
      in
      let req key =
        match get key with Some v -> parse_num_tok ln v | None -> fail ln (".var: missing " ^ key)
      in
      let grid =
        match get "grid" with
        | Some "log" | None -> Ast.Grid_log
        | Some "lin" -> Ast.Grid_lin
        | Some other -> fail ln (".var: bad grid " ^ other)
      in
      let steps = Option.map (fun v -> int_of_float (parse_num_tok ln v)) (get "steps") in
      let init = Option.map (parse_num_tok ln) (get "init") in
      {
        Ast.var_name = name;
        vmin = req "min";
        vmax = req "max";
        grid;
        steps;
        init;
      }
  | [] -> fail ln ".var: missing name"

let parse_spec ln kind_default toks =
  match toks with
  | name :: e :: opts ->
      let get key =
        List.find_map
          (fun tok ->
            match split_eq tok with Some (k, v) when k = key -> Some v | Some _ | None -> None)
          opts
      in
      let good =
        match get "good" with Some v -> parse_num_tok ln v | None -> fail ln "missing good="
      in
      let bad =
        match get "bad" with Some v -> parse_num_tok ln v | None -> fail ln "missing bad="
      in
      let kind =
        match kind_default with
        | `Obj -> if good > bad then Ast.Objective_max else Ast.Objective_min
        | `Spec -> if good > bad then Ast.Constraint_ge else Ast.Constraint_le
      in
      { Ast.spec_name = name; kind; expr = parse_expr_tok ln e; good; bad; spec_corner = get "corner" }
  | _ -> fail ln ".obj/.spec: expected name 'expr' good=.. bad=.. [corner=..]"

(* A transient stores every step, and the in-loop one runs on every
   evaluation: a step budget bounds its time and memory. *)
let max_tran_steps = 100_000.0

(* .tran tstop=.. dt=.. [dtloop=..] [vstep=..] *)
let parse_tran ln toks =
  let get key =
    List.find_map
      (fun tok ->
        match split_eq tok with Some (k, v) when k = key -> Some v | Some _ | None -> None)
      toks
  in
  let req key =
    match get key with Some v -> parse_num_tok ln v | None -> fail ln (".tran: missing " ^ key ^ "=")
  in
  let tstop = req "tstop" and dt = req "dt" in
  if not (tstop > 0.0 && dt > 0.0 && dt <= tstop) then
    fail ln ".tran: need 0 < dt <= tstop";
  let dtloop = Option.map (parse_num_tok ln) (get "dtloop") in
  (match dtloop with
  | Some d when not (d > 0.0 && d <= tstop) -> fail ln ".tran: need 0 < dtloop <= tstop"
  | Some _ | None -> ());
  List.iter
    (fun step ->
      if tstop /. step > max_tran_steps then
        fail ln (Printf.sprintf ".tran: more than %.0f steps of tstop" max_tran_steps))
    (dt :: Option.to_list dtloop);
  let vstep = match get "vstep" with Some v -> parse_num_tok ln v | None -> 0.1 in
  if vstep = 0.0 then fail ln ".tran: vstep must be nonzero";
  { Ast.tr_tstop = tstop; tr_dt = dt; tr_dtloop = dtloop; tr_vstep = vstep }

let parse_model ln toks =
  match toks with
  | name :: kind :: opts ->
      let level = ref "1" in
      let mparams = ref [] in
      List.iter
        (fun tok ->
          match split_eq tok with
          | Some ("level", v) -> level := v
          | Some (k, v) -> mparams := (k, parse_num_tok ln v) :: !mparams
          | None -> fail ln (".model: bad token " ^ tok))
        opts;
      { Ast.model_name = name; device_kind = kind; level = !level; mparams = List.rev !mparams }
  | _ -> fail ln ".model: expected name kind [level=..] [k=v ...]"

let parse_problem src =
  let st =
    {
      title = "";
      subckts = [];
      models = [];
      process = None;
      params = [];
      vars = [];
      jigs = [];
      bias = [];
      specs = [];
      regions = [];
      netlist_lines = 0;
      synth_lines = 0;
    }
  in
  let mode = ref Top in
  let handle { ln; text } =
    let toks = tokenize ln text in
    match toks with
    | [] -> ()
    | card :: rest -> begin
        match (!mode, card) with
        | Top, ".title" ->
            st.title <- String.concat " " rest;
            st.netlist_lines <- st.netlist_lines + 1
        | Top, ".subckt" -> begin
            match rest with
            | name :: ports when ports <> [] ->
                mode := In_subckt (name, ports, ref []);
                st.netlist_lines <- st.netlist_lines + 1
            | _ -> fail ln ".subckt: expected name and ports"
          end
        | In_subckt (name, ports, body), ".ends" ->
            st.subckts <- { Ast.sub_name = name; ports; body = List.rev !body } :: st.subckts;
            mode := Top;
            st.netlist_lines <- st.netlist_lines + 1
        | In_subckt (_, _, body), _ when card.[0] <> '.' ->
            body := parse_element ln toks :: !body;
            st.netlist_lines <- st.netlist_lines + 1
        | In_subckt _, _ -> fail ln ("unexpected card in .subckt: " ^ card)
        | Top, ".jig" -> begin
            match rest with
            | [ name ] ->
                mode := In_jig (name, ref [], ref [], ref None);
                st.netlist_lines <- st.netlist_lines + 1
            | _ -> fail ln ".jig: expected a single name"
          end
        | In_jig (name, body, pzs, tran), ".endjig" ->
            st.jigs <-
              {
                Ast.jig_name = name;
                jig_body = List.rev !body;
                pzs = List.rev !pzs;
                jig_tran = !tran;
              }
              :: st.jigs;
            mode := Top;
            st.netlist_lines <- st.netlist_lines + 1
        | In_jig (_, _, pzs, _), (".pz" | ".noise" | ".psrr") -> begin
            match rest with
            | [ tf_name; vout; src ] ->
                let out_pos, out_neg = parse_vout ln vout in
                let pz_kind =
                  match card with
                  | ".noise" -> Ast.Pz_noise
                  | ".psrr" -> Ast.Pz_psrr
                  | _ -> Ast.Pz_ac
                in
                pzs := { Ast.tf_name; out_pos; out_neg; src; pz_kind } :: !pzs;
                st.netlist_lines <- st.netlist_lines + 1
            | _ -> fail ln (card ^ ": expected 'tfname v(out) srcname'")
          end
        | In_jig (_, _, _, tran), ".tran" -> begin
            match !tran with
            | Some _ -> fail ln ".tran: at most one per jig"
            | None ->
                tran := Some (parse_tran ln rest);
                st.netlist_lines <- st.netlist_lines + 1
          end
        | In_jig (_, body, _, _), _ when card.[0] <> '.' ->
            body := parse_element ln toks :: !body;
            st.netlist_lines <- st.netlist_lines + 1
        | In_jig _, _ -> fail ln ("unexpected card in .jig: " ^ card)
        | Top, ".bias" ->
            mode := In_bias (ref []);
            st.netlist_lines <- st.netlist_lines + 1
        | In_bias body, ".endbias" ->
            st.bias <- List.rev !body;
            mode := Top;
            st.netlist_lines <- st.netlist_lines + 1
        | In_bias body, _ when card.[0] <> '.' ->
            body := parse_element ln toks :: !body;
            st.netlist_lines <- st.netlist_lines + 1
        | In_bias _, _ -> fail ln ("unexpected card in .bias: " ^ card)
        | Top, ".model" ->
            st.models <- parse_model ln rest :: st.models;
            st.netlist_lines <- st.netlist_lines + 1
        | Top, ".process" -> begin
            match rest with
            | [ name ] ->
                st.process <- Some name;
                st.netlist_lines <- st.netlist_lines + 1
            | _ -> fail ln ".process: expected a single name"
          end
        | Top, ".param" -> begin
            match rest with
            | [ tok ] -> begin
                match split_eq tok with
                | Some (k, v) ->
                    st.params <- (k, parse_expr_tok ln v) :: st.params;
                    st.synth_lines <- st.synth_lines + 1
                | None -> fail ln ".param: expected name=expr"
              end
            | _ -> fail ln ".param: expected name=expr"
          end
        | Top, ".var" ->
            st.vars <- parse_var ln rest :: st.vars;
            st.synth_lines <- st.synth_lines + 1
        | Top, ".obj" ->
            st.specs <- parse_spec ln `Obj rest :: st.specs;
            st.synth_lines <- st.synth_lines + 1
        | Top, ".spec" ->
            st.specs <- parse_spec ln `Spec rest :: st.specs;
            st.synth_lines <- st.synth_lines + 1
        | Top, ".devregion" -> begin
            match rest with
            | [ elem; req ] ->
                let r =
                  match req with
                  | "sat" -> Ast.Region_sat
                  | "linear" -> Ast.Region_linear
                  | "off" -> Ast.Region_off
                  | "any" -> Ast.Region_any
                  | _ -> fail ln (".devregion: bad region " ^ req)
                in
                st.regions <- (elem, r) :: st.regions;
                st.synth_lines <- st.synth_lines + 1
            | _ -> fail ln ".devregion: expected 'elem region'"
          end
        | Top, ".end" -> ()
        | Top, _ when card.[0] = '.' -> fail ln ("unknown card " ^ card)
        | Top, _ -> fail ln ("element card outside .subckt/.jig/.bias: " ^ card)
      end
  in
  List.iter handle (logical_lines src);
  (match !mode with
  | Top -> ()
  | In_subckt (name, _, _) -> fail 0 ("unterminated .subckt " ^ name)
  | In_jig (name, _, _, _) -> fail 0 ("unterminated .jig " ^ name)
  | In_bias _ -> fail 0 "unterminated .bias");
  {
    Ast.title = st.title;
    subckts = List.rev st.subckts;
    models = List.rev st.models;
    process = st.process;
    params = List.rev st.params;
    vars = List.rev st.vars;
    jigs = List.rev st.jigs;
    bias = st.bias;
    specs = List.rev st.specs;
    regions = List.rev st.regions;
    counts = { Ast.netlist_lines = st.netlist_lines; synth_lines = st.synth_lines };
  }

let parse_elements src =
  List.map (fun { ln; text } -> parse_element ln (tokenize ln text)) (logical_lines src)
