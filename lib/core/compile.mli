(** ASTRX — compilation of a problem description into the cost function
    OBLX minimizes.

    The pipeline mirrors the paper's Section V.A: (a) determine the
    independent variables x (user variables plus, via {!Treelink}, the
    bias-network node voltages of the relaxed-dc formulation), (b) generate
    the large-signal bias network with device templates expanded,
    (c) derive the KCL constraints, (d) generate the small-signal AWE
    circuits for every test jig, (e) generate cost terms for each
    performance specification, and (f) assemble the cost function: the
    {!Problem.t} plus its {!Depgraph} dependency graph (the original
    emitted C — see DESIGN.md). Every spec expression is resolved here
    by {!Spec.resolve} into the typed tree {!Eval} and {!Verify}
    interpret; every element value and [.param] is checked in the
    element-value context, and every device model is looked up, so a
    name that does not resolve is an [Error] naming its card, never a
    failure at the first evaluation. The analysis record's [lines_of_c]
    is a weighted estimate of that C's size, computed from the sizes of
    the compiled parts. *)

exception Error of string

(** [compile ?corner ast] runs the whole pipeline. The optional process
    corner skews every device model (see {!Corners}). *)
val compile : ?corner:Devices.Registry.corner -> Netlist.Ast.problem -> (Problem.t, string) result

(** [compile_source ?corner src] parses then compiles. *)
val compile_source : ?corner:Devices.Registry.corner -> string -> (Problem.t, string) result
