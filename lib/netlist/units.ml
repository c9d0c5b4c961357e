let suffix_value s =
  match String.lowercase_ascii s with
  | "t" -> Some 1e12
  | "g" -> Some 1e9
  | "meg" -> Some 1e6
  | "k" -> Some 1e3
  | "m" -> Some 1e-3
  | "u" -> Some 1e-6
  | "n" -> Some 1e-9
  | "p" -> Some 1e-12
  | "f" -> Some 1e-15
  | _ -> None

let is_digit c = c >= '0' && c <= '9'

let is_number s =
  let n = String.length s in
  if n = 0 then false
  else if is_digit s.[0] then true
  else if s.[0] = '+' || s.[0] = '-' || s.[0] = '.' then
    n > 1 && (is_digit s.[1] || (s.[1] = '.' && n > 2 && is_digit s.[2]))
  else false

let parse s =
  let n = String.length s in
  if n = 0 then Error "empty numeric literal"
  else begin
    (* Scan the leading float part: sign, digits, dot, exponent. *)
    let i = ref 0 in
    if !i < n && (s.[!i] = '+' || s.[!i] = '-') then incr i;
    let digits = ref 0 in
    let scan_digits () =
      while !i < n && is_digit s.[!i] do
        incr i;
        incr digits
      done
    in
    scan_digits ();
    if !i < n && s.[!i] = '.' then begin
      incr i;
      scan_digits ()
    end;
    (* A mantissa needs a digit on one side of the dot: ".", "-." or ".e5"
       alone is no number. *)
    if !digits = 0 then Error (Printf.sprintf "malformed number %S" s)
    else begin
      (* Exponent is only consumed when followed by digits; a bare 'e' would
         otherwise eat a suffix letter. *)
      (if !i < n && (s.[!i] = 'e' || s.[!i] = 'E') then begin
         let j = ref (!i + 1) in
         if !j < n && (s.[!j] = '+' || s.[!j] = '-') then incr j;
         let exp_digits = ref 0 in
         while !j < n && is_digit s.[!j] do
           incr j;
           incr exp_digits
         done;
         if !exp_digits > 0 then i := !j
       end);
      let base = float_of_string (String.sub s 0 !i) in
      let rest = String.sub s !i (n - !i) in
      let rest_l = String.lowercase_ascii rest in
      if rest = "" then Ok base
      else if String.length rest_l >= 3 && String.sub rest_l 0 3 = "meg" then Ok (base *. 1e6)
      else
        match suffix_value (String.sub rest_l 0 1) with
        | Some m -> Ok (base *. m)
        | None ->
            (* Pure unit letters like "F" in "10F"? 'f' is femto in SPICE, so
               any unrecognized leading letter is an error. *)
            Error (Printf.sprintf "unknown suffix %S in %S" rest s)
    end
  end

let format x =
  if x = 0.0 then "0"
  else begin
    let ax = Float.abs x in
    let pick =
      [ (1e12, "t"); (1e9, "g"); (1e6, "meg"); (1e3, "k"); (1.0, ""); (1e-3, "m");
        (1e-6, "u"); (1e-9, "n"); (1e-12, "p"); (1e-15, "f") ]
    in
    let rec choose = function
      | [] -> Printf.sprintf "%g" x
      | (scale, suffix) :: rest ->
          if ax >= scale then Printf.sprintf "%g%s" (x /. scale) suffix else choose rest
    in
    choose pick
  end
