(** Nonlinear DC operating-point analysis by Newton-Raphson with gmin
    stepping, per-step voltage damping, and a source-stepping fallback —
    this is the "detailed circuit simulator" half of the reproduction's
    reference simulator.

    A solve resolves its circuit once, before the first Newton iteration:
    each element's unknown rows, its device model and its element values
    (one [value] call per expression per solve). Every iteration then
    evaluates each device once and stamps from that plan, in element
    order, so the iterates have the bits of a per-iteration walk of the
    circuit. The transient engine ({!Tran}) runs on the same core.

    Capacitors are open, inductors are 0 V branches. *)

type op_info = Newton.op_info = Mos_op of Devices.Sig.mos_op | Bjt_op of Devices.Sig.bjt_op

type solution = {
  index : Sysmat.t;
  x : float array;  (** full unknown vector (node voltages then branches) *)
  ops : (string * op_info) list;  (** per nonlinear device, by element name *)
  iterations : int;
}

(** [node_voltage sol node] — ground returns 0. *)
val node_voltage : solution -> int -> float

(** [branch_current sol name] is the current through a voltage-defined
    element, positive from its + node to its - node through the element. *)
val branch_current : solution -> string -> float option

(** [supply_power sol ~value] is the total power delivered by independent
    voltage sources, watts. *)
val supply_power : solution -> value:(Netlist.Expr.t -> float) -> float

(** [solve ~value ~registry circuit] computes the operating point.
    [value] evaluates element-value expressions (design variables bound by
    the caller). A bad circuit returns the error of its first bad element
    in element order: a non-positive resistance, an unknown model or one
    of the wrong kind, a current-controlled source naming no
    voltage-defined element, or an element value that does not
    evaluate. [x0] warm-starts the Newton iteration: a plain Newton at
    the final gmin (1e-12) from [x0] is tried first, then the gmin
    schedule from [x0], then source stepping from zero. Without [x0] the
    schedule starts from zero.
    @raise Invalid_argument if [x0] does not have one entry per unknown. *)
val solve :
  ?max_iter:int ->
  ?x0:float array ->
  value:(Netlist.Expr.t -> float) ->
  registry:Devices.Registry.t ->
  Netlist.Circuit.t ->
  (solution, string) result

(** [solve_ramped ~value ~registry circuit] is [solve]'s source-stepping
    fallback alone, in 50 equal steps instead of 6: slower, and it finds
    operating points the coarse ramp steps past. For callers with no
    other way left, such as the reference simulator on a design whose
    [solve] failed. *)
val solve_ramped :
  value:(Netlist.Expr.t -> float) ->
  registry:Devices.Registry.t ->
  Netlist.Circuit.t ->
  (solution, string) result

(** [nodeset circuit hint] is a start point for [solve ~x0], in the
    style of a SPICE [.nodeset]: node [k]'s voltage is [hint] of its name
    (0 where [hint] gives [None]), every branch current 0. *)
val nodeset : Netlist.Circuit.t -> (string -> float option) -> float array
