(** The spec language: the [.obj]/[.spec] measurement expressions of
    docs/LANGUAGE.md §4–5, owned in one place.

    {!Compile} resolves every spec expression once through {!resolve}:
    variables become state slots, [.param]s are inlined, a dotted
    reference becomes its bias element plus a field accessor, and each
    measurement becomes a constructor carrying its resolved transfer
    function(s). A name that does not resolve, a wrong arity or a wrong
    argument kind is a compile error. {!eval} interprets the tree over a
    {!backend} of engine primitives: {!Eval} answers them from the AWE
    models of the relaxed-dc bias point, {!Verify} from Newton operating
    points, direct AC and exact-step transients. The arithmetic, the
    defaults and every formula the two engines share are {!eval}'s. *)

(** A measurement the shared formulas cannot complete (no noise
    bandwidth, say). Backends raise their own exceptions. *)
exception Failed of string

(** Output ports and stimulus source of a transfer function. *)
type ports = { out_pos : int; out_neg : int option; src : string }

(** A resolved transfer function: its jig (index into [Problem.jigs]),
    ports, and the jig's [.tran] card. *)
type tf = {
  tf_name : string;
  tf_jig : int;
  tf_ports : ports;
  tf_tran : Netlist.Ast.tran_card option;
}

(** A device of the bias network: name and element index. *)
type dev = { dev_name : string; dev_elem : int }

(** A V source of the bias network: name and + node. *)
type vsrc = { vs_name : string; vs_np : int }

(** A resolved expression. *)
type t

(** {1 Tables} *)

(** The math builtins of §4, usable in every expression. *)
val math_names : string list

(** The measurement functions of §5.1–5.2 ([phase_margin] and [pm] are
    one function), usable only in spec expressions. *)
val measurement_names : string list

(** §5.3's operating-point fields, by device kind. *)
val mos_fields : (string * (Devices.Sig.mos_op -> float)) list

val bjt_fields : (string * (Devices.Sig.bjt_op -> float)) list

(** [math_call name args] applies a math builtin by name — the [call] of
    element-value environments.
    @raise Netlist.Expr.Eval_error on an unknown name or a wrong arity *)
val math_call : string -> float list -> float

(** {1 Resolution} *)

(** What names resolve to: user variables (their list position is their
    state slot), [.param]s, and — for spec expressions only — the
    transfer functions and the bias network. Without [measure] this is
    the element-value context: variables, parameters and math builtins. *)
type scope = {
  vars : string list;
  params : (string * Netlist.Expr.t) list;
  measure : (tf list * Netlist.Circuit.t) option;
}

(** [resolve ?param sc e] resolves [e] in [sc], or says which name does
    not resolve and why. [param] names the [.param] whose expression [e]
    is, for the cycle check. *)
val resolve : ?param:string -> scope -> Netlist.Expr.t -> (t, string) result

(** What an expression reads, each list ascending without repeats:
    state slots, bias elements whose operating point it reads, jigs whose
    transfer functions it measures, and whether it reads the whole bias
    solution ([area]/[power]/[supply_current]). *)
type deps = { d_vars : int list; d_elems : int list; d_jigs : int list; d_bias : bool }

val deps : t -> deps

(** [uses_transient e]: [e] reads a step response ([slew_rate],
    [settle]). *)
val uses_transient : t -> bool

(** {1 Evaluation} *)

(** A step response: sample times, the output waveform, the step onset
    and the end of the run. *)
type wave = { times : float array; v : float array; t_step : float; t_stop : float }

(** The engine primitives {!eval} reads. Options are [None] where the
    engine has no value; {!eval} supplies the defaults. *)
type backend = {
  op : dev -> Mna.Dc.op_info;
  dc_gain : tf -> float;
  ugf : tf -> float option;
  pm : tf -> float option;
  gain_at : tf -> float -> float;
  bw3db : tf -> float option;
  rom : tf -> (Awe.Rom.t, string) result;
      (** the AWE model [pole1] and [gain_margin_db] read *)
  step : tf -> wave;
  noise_density : tf -> float;  (** dc output noise, V^2/Hz *)
  area : unit -> float;
  power : unit -> float;
  supply_current : vsrc -> float;
}

(** [eval b st e] evaluates [e] at state [st]: operands in
    {!Netlist.Expr.eval}'s order; defaults [ugf] 0, [pm] 180, [bw3db] 0,
    [pole1] 0, [gain_margin_db] 60; [psrr_db] capped at 300 dB;
    [noise_out_uv] over the equivalent noise bandwidth pi/2 * bw3db.
    @raise Netlist.Expr.Eval_error on a zero divisor
    @raise Failed when a shared formula has no value
    and whatever [b] raises. *)
val eval : backend -> State.t -> t -> float

(** [value_env names values] — the element-value environment: a bare
    name evaluates its resolved tree in [names] (resolved without
    [measure]) with {!eval}'s arithmetic, variable [i] reading
    [(values ()).(i)]; a call applies {!math_call}. A name [names] does
    not hold raises [Not_found], which {!Netlist.Expr.eval} reports as an
    unknown reference. *)
val value_env : (string, t) Hashtbl.t -> (unit -> float array) -> Netlist.Expr.env
