(** Build the small-signal (linearized) system G, C, b of a circuit at a
    given operating point: nonlinear devices are replaced by their
    encapsulated-evaluator small-signal models (gm/gds/gmbs + capacitances
    for MOS; gm/gpi/go/gmu + cpi/cmu/ccs for BJT).

    The same structure feeds both the direct AC reference analysis
    ({!Ac}) and AWE moment generation. *)

type t = {
  idx : Sysmat.t;
  g : La.Mat.t;  (** conductance matrix *)
  c : La.Mat.t;  (** susceptance (capacitance/inductance) matrix *)
  b : La.Vec.t;  (** AC excitation vector *)
}

(** [build ~value ~ops circuit] stamps the linearized system. [ops] returns
    the operating point for a device element name; a device without an
    operating point is an error ([Failure]). *)
val build :
  value:(Netlist.Expr.t -> float) -> ops:(string -> Dc.op_info option) -> Netlist.Circuit.t -> t

(** [restamp t ~value ~ops circuit] overwrites [t]'s [g], [c] and [b]
    in place with the stamps of [circuit] — the circuit [t] was built
    from, at other element values or operating points. The layout depends
    only on topology (element kinds, names, node connectivity), never on
    values, so the result has the bits [build] gives, without allocating:
    the incremental probe path restamps thousands of times per layout.
    On [Failure] the buffers are left partly stamped. *)
val restamp :
  t -> value:(Netlist.Expr.t -> float) -> ops:(string -> Dc.op_info option) ->
  Netlist.Circuit.t -> unit

(** [output_vector t ~pos ~neg] is the selector row picking
    v(pos) - v(neg); [neg = None] means ground. *)
val output_vector : t -> pos:int -> neg:int option -> La.Vec.t

(** [excitation_of t ~src] replaces the excitation with the one produced by
    unit AC magnitude on the named source only (used when a jig contains
    several AC sources and a .pz card names one). *)
val excitation_of : t -> src:string -> La.Vec.t
