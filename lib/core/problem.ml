(* The compiled synthesis problem: everything ASTRX produces from the
   input description, ready for OBLX to solve. *)

type tf = Spec.ports = { out_pos : int; out_neg : int option; src : string }

type jig = {
  jig_name : string;
  jig_circuit : Netlist.Circuit.t;  (** template-expanded *)
  tfs : (string * tf) list;  (** transfer-function name -> ports *)
  jig_tran : Netlist.Ast.tran_card option;
      (** fixed-step transient budget for slew/settling measurements *)
}

type spec = {
  spec_name : string;
  kind : Netlist.Ast.goal_kind;
  expr : Spec.t;  (** resolved at compile time *)
  good : float;
  bad : float;
  spec_corner : string option;
      (** when set, measure this row with the registry skewed to the named
          process corner — a robustness penalty term in the cost *)
}

(* Static dependency graph over the compiled problem, emitted by ASTRX
   alongside the evaluator itself: optimization variable -> affected bias
   nodes -> affected elements (device operating points, KCL flows) ->
   affected test jigs (AWE models) and cost terms. [Eval.Incr] walks it to
   re-evaluate only the slice of the cost function a move touched.

   All edge lists are conservative over-approximations: an edge too many
   costs a redundant recompute, an edge too few would break the
   bit-identity guarantee. *)
type spec_deps = {
  sd_always : bool;
      (** re-measure on every evaluation (area/power/supply_current, or a
          corner row) *)
  sd_vars : int list;  (** variable indices the spec expression reads *)
  sd_elems : int list;  (** bias elements whose operating point it reads *)
  sd_jigs : int list;  (** jigs whose transfer functions it measures *)
}

type depgraph = {
  dg_var_nodes : int list array;
      (** variable index -> bias nodes whose voltage depends on it *)
  dg_node_elems : int list array;  (** bias node -> elements touching it *)
  dg_var_elems : int list array;
      (** variable -> elements whose value expressions read it *)
  dg_elem_jigs : int list array;
      (** bias element -> jigs that take its operating point *)
  dg_var_jigs : int list array;
      (** variable -> jigs whose own element values read it *)
  dg_jig_exprs : Netlist.Expr.t list array;
      (** jig -> value expressions its linearization evaluates *)
  dg_spec_deps : spec_deps array;  (** per spec, in spec order *)
}

(* The Table-1 row: what ASTRX's analysis of the problem produced. *)
type analysis = {
  input_netlist_lines : int;
  input_synth_lines : int;
  n_user_vars : int;
  n_node_vars : int;
  n_cost_terms : int;
  lines_of_c : int;  (** size of the generated evaluator, C-lines metric *)
  bias_nodes : int;
  bias_elements : int;
  awe_circuits : (string * int * int) list;  (** jig, nodes, elements *)
}

type t = {
  title : string;
  registry : Devices.Registry.t;
  names : (string, Spec.t) Hashtbl.t;
      (** every variable's and [.param]'s resolved tree, by name: the
          element-value names, resolved once at compile time *)
  state0 : State.t;
  bias : Netlist.Circuit.t;  (** template-expanded bias network *)
  tl : Treelink.t;
  jigs : jig list;
  specs : spec list;
  corner_regs : (string * Devices.Registry.t) list;
      (** registries for the corners named by [spec_corner] rows, resolved
          at compile time so corner rows never recompile in the loop *)
  regions : (string * Netlist.Ast.region_req) list;
  analysis : analysis;
  deps : depgraph;
}

let n_user_vars t = t.analysis.n_user_vars

(* Variable index of the first node-voltage variable. *)
let node_var_base t = t.analysis.n_user_vars

(* Element values, the bias network's and every jig's, read only the user
   variables (names resolve to user slots and .params), so a simulation of
   either circuit is a function of this slice's bits. *)
let user_slice t (values : float array) = Array.sub values 0 (node_var_base t)

(* Whether [values] holds [key]'s bits (a [user_slice]) in its user
   slots: 0.0 and -0.0 differ, as do NaN payloads. *)
let same_user_bits key (values : float array) =
  let rec go i =
    i < 0
    || Int64.equal (Int64.bits_of_float key.(i)) (Int64.bits_of_float values.(i))
       && go (i - 1)
  in
  go (Array.length key - 1)

let find_spec t name = List.find_opt (fun s -> s.spec_name = name) t.specs
