type t =
  | Const of float
  | Ref of string list
  | Call of string * t list
  | Neg of t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Pow of t * t

exception Parse_error of string

(* --- Tokenizer --- *)

type token = Tnum of float | Tident of string | Tpunct of char | Tend

(* Node names with '+'/'-' (out+, in-) never appear in arithmetic
   expressions — they are confined to netlist cards, which have their own
   tokenizer — so identifiers here are plain C-like names. *)
let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

let tokenize s =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  let push t = toks := t :: !toks in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\t' then incr i
    else if (c >= '0' && c <= '9') || (c = '.' && !i + 1 < n && s.[!i + 1] >= '0' && s.[!i + 1] <= '9')
    then begin
      (* Numeric literal with optional SPICE suffix: consume digits, dots,
         exponent and trailing letters. *)
      let j = ref !i in
      let seen_e = ref false in
      let continue_ = ref true in
      while !continue_ && !j < n do
        let d = s.[!j] in
        if (d >= '0' && d <= '9') || d = '.' then incr j
        else if (d = 'e' || d = 'E') && not !seen_e then begin
          (* Only an exponent if followed by digit or sign+digit. *)
          if
            !j + 1 < n
            && (s.[!j + 1] >= '0' && s.[!j + 1] <= '9'
               || ((s.[!j + 1] = '+' || s.[!j + 1] = '-')
                  && !j + 2 < n
                  && s.[!j + 2] >= '0'
                  && s.[!j + 2] <= '9'))
          then begin
            seen_e := true;
            j := !j + 2
          end
          else incr j (* suffix letter like the e of Meg *)
        end
        else if (d >= 'a' && d <= 'z') || (d >= 'A' && d <= 'Z') then incr j
        else continue_ := false
      done;
      let lit = String.sub s !i (!j - !i) in
      (match Units.parse lit with
      | Ok v -> push (Tnum v)
      | Error e -> raise (Parse_error e));
      i := !j
    end
    else if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' then begin
      let j = ref !i in
      while !j < n && is_ident_char s.[!j] do
        incr j
      done;
      push (Tident (String.sub s !i (!j - !i)));
      i := !j
    end
    else
      match c with
      | '+' | '-' | '*' | '/' | '^' | '(' | ')' | ',' | '.' ->
          push (Tpunct c);
          incr i
      | _ -> raise (Parse_error (Printf.sprintf "unexpected character %C in %S" c s))
  done;
  push Tend;
  List.rev !toks

(* --- Recursive-descent parser --- *)

type stream = { mutable toks : token list }

let peek st = match st.toks with [] -> Tend | t :: _ -> t
let advance st = match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let expect_punct st c =
  match peek st with
  | Tpunct d when d = c -> advance st
  | _ -> raise (Parse_error (Printf.sprintf "expected %C" c))

let rec parse_expr st =
  let lhs = ref (parse_term st) in
  let continue_ = ref true in
  while !continue_ do
    match peek st with
    | Tpunct '+' ->
        advance st;
        lhs := Add (!lhs, parse_term st)
    | Tpunct '-' ->
        advance st;
        lhs := Sub (!lhs, parse_term st)
    | Tnum _ | Tident _ | Tpunct _ | Tend -> continue_ := false
  done;
  !lhs

and parse_term st =
  let lhs = ref (parse_factor st) in
  let continue_ = ref true in
  while !continue_ do
    match peek st with
    | Tpunct '*' ->
        advance st;
        lhs := Mul (!lhs, parse_factor st)
    | Tpunct '/' ->
        advance st;
        lhs := Div (!lhs, parse_factor st)
    | Tnum _ | Tident _ | Tpunct _ | Tend -> continue_ := false
  done;
  !lhs

and parse_factor st =
  let base = parse_atom st in
  match peek st with
  | Tpunct '^' ->
      advance st;
      Pow (base, parse_factor st)
  | Tnum _ | Tident _ | Tpunct _ | Tend -> base

and parse_atom st =
  match peek st with
  | Tnum v ->
      advance st;
      Const v
  | Tpunct '-' ->
      advance st;
      Neg (parse_atom st)
  | Tpunct '+' ->
      advance st;
      parse_atom st
  | Tpunct '(' ->
      advance st;
      let e = parse_expr st in
      expect_punct st ')';
      e
  | Tident name -> begin
      advance st;
      match peek st with
      | Tpunct '(' ->
          advance st;
          let args = ref [] in
          (match peek st with
          | Tpunct ')' -> advance st
          | Tnum _ | Tident _ | Tpunct _ | Tend ->
              let rec loop () =
                args := parse_expr st :: !args;
                match peek st with
                | Tpunct ',' ->
                    advance st;
                    loop ()
                | Tpunct ')' -> advance st
                | Tnum _ | Tident _ | Tpunct _ | Tend ->
                    raise (Parse_error "expected ',' or ')' in call")
              in
              loop ());
          Call (String.lowercase_ascii name, List.rev !args)
      | Tpunct '.' ->
          let path = ref [ name ] in
          while peek st = Tpunct '.' do
            advance st;
            match peek st with
            | Tident part ->
                advance st;
                path := part :: !path
            | Tnum _ | Tpunct _ | Tend -> raise (Parse_error "expected identifier after '.'")
          done;
          Ref (List.rev !path)
      | Tnum _ | Tident _ | Tpunct _ | Tend -> Ref [ name ]
    end
  | Tpunct c -> raise (Parse_error (Printf.sprintf "unexpected %C" c))
  | Tend -> raise (Parse_error "unexpected end of expression")

let parse s =
  let st = { toks = tokenize s } in
  let e = parse_expr st in
  match peek st with
  | Tend -> e
  | Tnum _ | Tident _ | Tpunct _ ->
      raise (Parse_error (Printf.sprintf "trailing garbage in expression %S" s))

(* --- Evaluation --- *)

type env = { lookup : string list -> float; call : string -> float list -> float }

exception Eval_error of string

let rec eval env e =
  match e with
  | Const v -> v
  | Ref path -> begin
      try env.lookup path
      with Not_found -> raise (Eval_error ("unknown reference " ^ String.concat "." path))
    end
  | Call (name, args) -> env.call name (List.map (eval env) args)
  | Neg a -> -.eval env a
  | Add (a, b) -> eval env a +. eval env b
  | Sub (a, b) -> eval env a -. eval env b
  | Mul (a, b) -> eval env a *. eval env b
  | Div (a, b) ->
      let d = eval env b in
      if d = 0.0 then raise (Eval_error "division by zero") else eval env a /. d
  | Pow (a, b) -> Float.pow (eval env a) (eval env b)

let rec subst map e =
  match e with
  | Const _ -> e
  | Ref [ x ] -> ( match List.assoc_opt x map with Some r -> r | None -> e)
  | Ref _ -> e
  | Call (name, args) -> Call (name, List.map (subst map) args)
  | Neg a -> Neg (subst map a)
  | Add (a, b) -> Add (subst map a, subst map b)
  | Sub (a, b) -> Sub (subst map a, subst map b)
  | Mul (a, b) -> Mul (subst map a, subst map b)
  | Div (a, b) -> Div (subst map a, subst map b)
  | Pow (a, b) -> Pow (subst map a, subst map b)

let rec size e =
  match e with
  | Const _ | Ref _ -> 1
  | Call (_, args) -> 1 + List.fold_left (fun acc a -> acc + size a) 0 args
  | Neg a -> 1 + size a
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) | Pow (a, b) -> 1 + size a + size b

let rec pp ppf e =
  match e with
  | Const v -> Format.fprintf ppf "%g" v
  | Ref p -> Format.fprintf ppf "%s" (String.concat "." p)
  | Call (name, args) ->
      Format.fprintf ppf "%s(" name;
      List.iteri (fun k a -> Format.fprintf ppf (if k = 0 then "%a" else ", %a") pp a) args;
      Format.fprintf ppf ")"
  | Neg a -> Format.fprintf ppf "-(%a)" pp a
  | Add (a, b) -> Format.fprintf ppf "(%a + %a)" pp a pp b
  | Sub (a, b) -> Format.fprintf ppf "(%a - %a)" pp a pp b
  | Mul (a, b) -> Format.fprintf ppf "(%a * %a)" pp a pp b
  | Div (a, b) -> Format.fprintf ppf "(%a / %a)" pp a pp b
  | Pow (a, b) -> Format.fprintf ppf "(%a ^ %a)" pp a pp b

let to_string e = Format.asprintf "%a" pp e
let const v = Const v
