(* ASTRX's static dependency analysis: which parts of the compiled cost
   function can a change to one optimization variable actually reach?

   The graph is built once at compile time from the same structures the
   evaluator walks (tree-link assignment, bias elements, jig circuits,
   resolved spec expressions), so membership is a property of the
   problem, not of any particular design point. Everything is an
   over-approximation: an element value that does not resolve (which
   [Compile] rejects before it gets here) would depend on every variable,
   never on none. *)

module S = Set.Make (Int)

let analyze ~(scope : Spec.scope) ~(state0 : State.t) ~(bias : Netlist.Circuit.t)
    ~(tl : Treelink.t) ~(jigs : Problem.jig list) ~(specs : Problem.spec list) :
    Problem.depgraph =
  let n_vars = State.n_vars state0 in
  let node_var_base = List.length scope.Spec.vars in
  (* Variable set an element value reads, through its resolved tree:
     [true] means "could be anything". *)
  let expr_vars e =
    match Spec.resolve scope e with
    | Ok t -> (false, S.of_list (Spec.deps t).Spec.d_vars)
    | Error _ -> (true, S.empty)
  in
  (* var -> nodes: through the tree-link assignment. A Free node reads its
     own variable plus whatever its source-chain offset reads; a Fixed node
     reads whatever its voltage expression reads. *)
  let n_nodes = Array.length tl.Treelink.of_node in
  let var_nodes = Array.make n_vars S.empty in
  let add_var_dep dest target (all, vars) =
    if all then
      for v = 0 to n_vars - 1 do
        dest.(v) <- S.add target dest.(v)
      done
    else S.iter (fun v -> dest.(v) <- S.add target dest.(v)) vars
  in
  Array.iteri
    (fun node a ->
      match a with
      | Treelink.Fixed e -> add_var_dep var_nodes node (expr_vars e)
      | Treelink.Free (k, off) ->
          add_var_dep var_nodes node (false, S.singleton (node_var_base + k));
          add_var_dep var_nodes node (expr_vars off))
    tl.Treelink.of_node;
  (* node -> elements (terminals the KCL sweep reads) and var -> elements
     (value expressions the sweep evaluates). Capacitors and voltage
     sources contribute no flow, so they have no edges of their own; a
     source's dc value reaches the cost only through node voltages, which
     the assignment expressions above already cover. *)
  let n_elems = Array.length bias.Netlist.Circuit.elements in
  let node_elems = Array.make n_nodes S.empty in
  let var_elems = Array.make n_vars S.empty in
  let elem_of_name = Hashtbl.create 16 in
  Array.iteri
    (fun i (e : Netlist.Circuit.element) ->
      Hashtbl.replace elem_of_name (Netlist.Circuit.element_name e) i;
      let touch nodes = List.iter (fun n -> node_elems.(n) <- S.add i node_elems.(n)) nodes in
      let reads exprs =
        List.iter (fun ex -> add_var_dep var_elems i (expr_vars ex)) exprs
      in
      match e with
      | Netlist.Circuit.Resistor { n1; n2; value; _ } ->
          touch [ n1; n2 ];
          reads [ value ]
      | Netlist.Circuit.Capacitor _ | Netlist.Circuit.Vsource _ -> ()
      | Netlist.Circuit.Isource { np; nn; dc; _ } ->
          touch [ np; nn ];
          reads [ dc ]
      | Netlist.Circuit.Vccs { np; nn; ncp; ncn; gm; _ } ->
          touch [ np; nn; ncp; ncn ];
          reads [ gm ]
      | Netlist.Circuit.Mosfet { d; g; s; b; w; l; mult; _ } ->
          touch [ d; g; s; b ];
          reads [ w; l; mult ]
      | Netlist.Circuit.Bjt { c; b; e = ne; area; _ } ->
          touch [ c; b; ne ];
          reads [ area ]
      | Netlist.Circuit.Inductor _ | Netlist.Circuit.Vcvs _ | Netlist.Circuit.Cccs _
      | Netlist.Circuit.Ccvs _ ->
          (* rejected for bias networks at compile time *)
          ())
    bias.Netlist.Circuit.elements;
  (* element -> jigs: a jig depends on the operating point of every bias
     device that has a counterpart (same name) in the jig circuit.
     var -> jigs: the value expressions the jig's linearization evaluates
     (R/C/L values, controlled-source gains) — kept alongside so a dirty
     variable can be re-checked against the actual expression values. *)
  let n_jigs = List.length jigs in
  let elem_jigs = Array.make n_elems S.empty in
  let var_jigs = Array.make n_vars S.empty in
  let jig_exprs = Array.make n_jigs [] in
  List.iteri
    (fun j (jig : Problem.jig) ->
      let exprs = ref [] in
      Array.iter
        (fun (e : Netlist.Circuit.element) ->
          (match e with
          | Netlist.Circuit.Mosfet { name; _ } | Netlist.Circuit.Bjt { name; _ } ->
              Option.iter
                (fun i -> elem_jigs.(i) <- S.add j elem_jigs.(i))
                (Hashtbl.find_opt elem_of_name name)
          | _ -> ());
          (* Every value: transient and noise measurements evaluate the
             jig's own device geometry, not just the bias counterpart's
             operating point, and the transient's initial DC point reads
             source dc values. *)
          exprs := Netlist.Circuit.values e @ !exprs)
        jig.Problem.jig_circuit.Netlist.Circuit.elements;
      jig_exprs.(j) <- List.rev !exprs;
      List.iter (fun ex -> add_var_dep var_jigs j (expr_vars ex)) !exprs)
    jigs;
  (* Per-spec dependencies: what the resolved expression reads. Corner
     rows rebuild bias + ROMs under a skewed registry, so like the
     whole-solution measurements they re-measure on every evaluation. *)
  let spec_deps (s : Problem.spec) =
    let d = Spec.deps s.Problem.expr in
    {
      Problem.sd_always = d.Spec.d_bias || s.Problem.spec_corner <> None;
      sd_vars = d.Spec.d_vars;
      sd_elems = d.Spec.d_elems;
      sd_jigs = d.Spec.d_jigs;
    }
  in
  {
    Problem.dg_var_nodes = Array.map S.elements var_nodes;
    dg_node_elems = Array.map S.elements node_elems;
    dg_var_elems = Array.map S.elements var_elems;
    dg_elem_jigs = Array.map S.elements elem_jigs;
    dg_var_jigs = Array.map S.elements var_jigs;
    dg_jig_exprs = jig_exprs;
    dg_spec_deps = Array.of_list (List.map spec_deps specs);
  }
