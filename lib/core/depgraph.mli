(** Static dependency analysis of a compiled problem (docs/PERFORMANCE.md):
    which bias nodes, elements, test jigs and specs can a change to one
    optimization variable reach? {!Eval.Incr} walks the resulting
    {!Problem.depgraph} to re-evaluate only the dirty slice of the cost
    function after a move.

    Every edge set is a conservative over-approximation, so a missing
    edge can never silently freeze a stale cached value. Element values
    are read through their {!Spec.resolve} trees in [scope] (the
    element-value context); spec dependencies are {!Spec.deps} of each
    resolved spec expression. *)

val analyze :
  scope:Spec.scope ->
  state0:State.t ->
  bias:Netlist.Circuit.t ->
  tl:Treelink.t ->
  jigs:Problem.jig list ->
  specs:Problem.spec list ->
  Problem.depgraph
