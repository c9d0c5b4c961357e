(* A flat (elaborated) circuit: subcircuits expanded, node names interned to
   integers with ground = 0, hierarchical element names like "xamp.m1". *)

type node = int

type element =
  | Resistor of { name : string; n1 : node; n2 : node; value : Expr.t }
  | Capacitor of { name : string; n1 : node; n2 : node; value : Expr.t }
  | Inductor of { name : string; n1 : node; n2 : node; value : Expr.t }
  | Vsource of { name : string; np : node; nn : node; dc : Expr.t; ac : float }
  | Isource of { name : string; np : node; nn : node; dc : Expr.t; ac : float }
  | Vcvs of { name : string; np : node; nn : node; ncp : node; ncn : node; gain : Expr.t }
  | Vccs of { name : string; np : node; nn : node; ncp : node; ncn : node; gm : Expr.t }
  | Cccs of { name : string; np : node; nn : node; vsrc : string; gain : Expr.t }
  | Ccvs of { name : string; np : node; nn : node; vsrc : string; r : Expr.t }
  | Mosfet of {
      name : string;
      d : node;
      g : node;
      s : node;
      b : node;
      model : string;
      w : Expr.t;
      l : Expr.t;
      mult : Expr.t;
    }
  | Bjt of { name : string; c : node; b : node; e : node; model : string; area : Expr.t }

type t = {
  node_names : string array;  (** index -> name; index 0 is ground *)
  elements : element array;
}

let node_count t = Array.length t.node_names
let element_count t = Array.length t.elements

let element_name = function
  | Resistor { name; _ }
  | Capacitor { name; _ }
  | Inductor { name; _ }
  | Vsource { name; _ }
  | Isource { name; _ }
  | Vcvs { name; _ }
  | Vccs { name; _ }
  | Cccs { name; _ }
  | Ccvs { name; _ }
  | Mosfet { name; _ }
  | Bjt { name; _ } ->
      name

(* Every value expression of an element. *)
let values = function
  | Resistor { value; _ } | Capacitor { value; _ } | Inductor { value; _ } -> [ value ]
  | Vsource { dc; _ } | Isource { dc; _ } -> [ dc ]
  | Vcvs { gain; _ } | Cccs { gain; _ } -> [ gain ]
  | Vccs { gm; _ } -> [ gm ]
  | Ccvs { r; _ } -> [ r ]
  | Mosfet { w; l; mult; _ } -> [ w; l; mult ]
  | Bjt { area; _ } -> [ area ]

let find_node t name =
  let rec scan k =
    if k >= Array.length t.node_names then raise Not_found
    else if t.node_names.(k) = name then k
    else scan (k + 1)
  in
  scan 0

let find_element t name =
  let rec scan k =
    if k >= Array.length t.elements then raise Not_found
    else if element_name t.elements.(k) = name then t.elements.(k)
    else scan (k + 1)
  in
  scan 0

let pp ppf t =
  Format.fprintf ppf "circuit: %d nodes, %d elements@\n" (node_count t) (element_count t);
  Array.iteri
    (fun k n -> if k > 0 then Format.fprintf ppf "  node %d = %s@\n" k n)
    t.node_names;
  Array.iter (fun e -> Format.fprintf ppf "  %s@\n" (element_name e)) t.elements
