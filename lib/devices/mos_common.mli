(** Shared MOS evaluator skeleton. The three supported models (level 1,
    level 3, BSIM-flavour) differ in their threshold, mobility and
    saturation-voltage physics but share the same smooth channel-current
    formulation, polarity/terminal-swap handling, junction diodes and
    charge model.

    All formulations are C1-smooth in the terminal voltages (softplus
    subthreshold blending, smooth linear/saturation transition), which keeps
    both OBLX's annealer and the Newton-Raphson bias solver well-behaved. *)

(** [make params] builds the encapsulated evaluator for a parameter set. *)
val make : Mos_params.t -> Sig.mos_eval

(** Thermal voltage kT/q at room temperature, volts. *)
val vt_thermal : float

(** [channel_current params ~weff ~leff ~vds ~vgs ~vbs] is the drain-source
    channel current in the device frame (vds >= 0 expected), exposed for
    unit tests of the model physics. It is the kernel [make] runs seven
    times per evaluation (the centre point and the six perturbed ones),
    whose per-geometry terms — the level-3 DIBL and BSIM short-channel
    coefficients, sqrt phi, the velocity-saturation voltage and the
    effective lambda — [make] computes once per call; its region and
    capacitances reuse the centre point's threshold, overdrive and
    saturation voltage. *)
val channel_current :
  Mos_params.t -> weff:float -> leff:float -> vds:float -> vgs:float -> vbs:float -> float

(** [junction_cap c0 pb mj v] is the depletion capacitance of a junction
    with zero-bias cap [c0], built-in potential [pb] and grading [mj] at
    forward voltage [v]; linearized above [0.5*pb]. Shared with the BJT
    evaluator. *)
val junction_cap : float -> float -> float -> float -> float
