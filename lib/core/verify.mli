(** Independent verification of a synthesized design — the "Simulation"
    columns of Tables 2 and 3.

    Where OBLX predicts performance from the relaxed-dc bias point and AWE
    reduced-order models, this module re-derives every specification value
    through the reference simulator: a full Newton-Raphson operating point
    of each test jig, direct frequency-by-frequency AC analysis, and the
    bias network solved exactly. The spec expressions are the same
    {!Spec} trees OBLX evaluates, interpreted over a reference-simulator
    {!Spec.backend}, so both sides share every formula and default. Any
    gap between [Oblx.result.predicted] and these numbers is the tool's
    true prediction error. *)

(** [simulate_specs p st] evaluates every specification of [p] at the
    design point [st] using the reference simulator. [None] entries are
    measurements the simulator could not complete (with the reason). *)
val simulate_specs : Problem.t -> State.t -> ((string * (float, string) result) list, string) result

(** [kcl_abs_error p st] is the worst absolute KCL residual (A) of the
    relaxed-dc state versus a true operating point — used for Fig. 2. *)
val kcl_abs_error : Problem.t -> State.t -> (float, string) result

(** [bias_voltage_error p st] is the max |v_relaxed - v_newton| over bias
    nodes: how far the annealer's voltages are from the exact solve. *)
val bias_voltage_error : Problem.t -> State.t -> (float, string) result

(** [transient_slew p st ~tf ~vstep ~tstop ~dt] measures slew rate the way
    a bench (or HSPICE .tran) would: step the named transfer function's
    source by [vstep] volts at t = tstop/10 and record the peak |dv/dt| at
    the tf's output. This is the large-signal cross-check for the
    expression-based slew specification OBLX optimizes (the paper's SR
    rows show exactly this OBLX-expression vs transient-sim gap). *)
val transient_slew :
  Problem.t ->
  State.t ->
  tf:string ->
  vstep:float ->
  tstop:float ->
  dt:float ->
  (float, string) result
