(** Nonlinear transient analysis with fixed-step backward-Euler integration
    and a Newton solve per timestep. Used as the reference measurement for
    large-signal specifications (slew rate) that AWE cannot predict.

    Time-varying stimulus is supplied per source name; sources without an
    override keep their DC value.

    A simulation resolves its circuit once, for its initial operating
    point (the {!Dc} core), and every timestep stamps from that plan: the
    stimulus is written into the stimulated sources, and the devices are
    evaluated once at each converged point, which both fixes the next
    step's capacitor companions and linearizes its first Newton
    iteration. *)

type t = {
  index : Sysmat.t;
  times : float array;
  states : float array array;  (** [step][unknown] *)
}

(** [node_waveform r node] extracts one node's voltage trace. *)
val node_waveform : t -> int -> float array

(** [waveform_of r ~pos ~neg] is the single-ended or differential trace
    v(pos) - v(neg). *)
val waveform_of : t -> pos:int -> neg:int option -> float array

(** [peak_slew ~times v ~t_from ~t_to] is the peak |dv/dt| over every
    sample interval that overlaps the window (t_from, t_to) — including
    the interval straddling the window edge, which carries the step-onset
    transition when the stimulus edge falls between samples. *)
val peak_slew : times:float array -> float array -> t_from:float -> t_to:float -> float

(** [slew_rate r node ~t_from ~t_to] is [peak_slew] of the node voltage,
    V/s. *)
val slew_rate : t -> int -> t_from:float -> t_to:float -> float

(** [settling_time ~times v ~t_from ~tol] is the time after [t_from] at
    which the waveform last enters the band [tol] * |v_final - v(t_from)|
    around its final value and stays there, in seconds. 0 when already
    settled at the step edge; bounded by the simulated horizon. *)
val settling_time : times:float array -> float array -> t_from:float -> tol:float -> float

(** [simulate ~value ~registry ~tstop ~dt ~stimulus circuit] steps from
    the DC operating point at t = 0 (stimulated sources at their
    waveform's value there) to [tstop] in steps of [dt], the last one
    shortened to end at [tstop]. Its errors name the initial operating
    point's failure, a timestep whose Newton iteration did not converge
    in 61 iterations (tolerance 1e-6 V), or a singular Jacobian. *)
val simulate :
  value:(Netlist.Expr.t -> float) ->
  registry:Devices.Registry.t ->
  tstop:float ->
  dt:float ->
  stimulus:(string * (float -> float)) list ->
  Netlist.Circuit.t ->
  (t, string) result
