(** Reduced-order models with automatic order selection, and the
    small-signal measurements OBLX extracts from them.

    [build] escalates the Padé order from [qmax] downward until it finds a
    model that (a) fits, (b) is stable (or whose right-half-plane poles
    carry negligible residue), and (c) reproduces the circuit moments it
    was fitted to. This mirrors the order/stability management any
    practical AWE implementation needs. *)

(** A fitted model with the circuit moments it was fitted against, and a
    memo of its unity-gain crossing ([unity_gain_freq] scans once per
    model; [phase_margin] reuses the scan). *)
type t

val build :
  ?qmax:int -> Mna.Linearize.t -> b:La.Vec.t -> sel:La.Vec.t -> (t, string) result

(** [build_with f] shares a {!Moments.factored} G factorization across
    several transfer functions of the same jig. *)
val build_with :
  ?qmax:int -> Moments.factored -> b:La.Vec.t -> sel:La.Vec.t -> (t, string) result

(** [of_moments moments] runs the order-descent fit on already-computed
    moments — the entry point for the incremental path, which refreshes
    moment vectors cheaply and only then fits. [moments] must hold at
    least [2*qmax + 2] entries. [build_with] is exactly
    [of_moments (Moments.compute_with ...)], so the two stay bit-identical
    by construction. *)
val of_moments : ?qmax:int -> float array -> (t, string) result

val dc_gain : t -> float

(** [eval t ~f] is H at frequency [f] in hertz. *)
val eval : t -> f:float -> La.Cpx.t

val magnitude_at : t -> f:float -> float

(** [unity_gain_freq t] in hertz; [None] when |H| stays below 1. *)
val unity_gain_freq : t -> float option

(** [phase_margin t] in degrees, with phase unwrapping from DC. *)
val phase_margin : t -> float option

(** [gain_margin_db t] at the -180 degree crossing; [None] if no crossing. *)
val gain_margin_db : t -> float option

(** [bandwidth_3db t] in hertz. *)
val bandwidth_3db : t -> float option

(** [dominant_pole_hz t] is |p_min| / 2pi for the smallest-magnitude pole. *)
val dominant_pole_hz : t -> float option

val poles : t -> La.Cpx.t array

(** [zeros t] expands the numerator from the pole/residue form and returns
    its roots. *)
val zeros : t -> La.Cpx.t array

(** [step_response t ~time] is the unit-step response value at [time]. *)
val step_response : t -> time:float -> float

(** [settling_time t ~tol] is the earliest time after which the unit-step
    response stays within [tol] (fractional) of its final value, found on
    a geometric time grid spanning the model's pole time constants;
    [None] when the response never settles inside the searched window
    (e.g. underdamped beyond the horizon). *)
val settling_time : t -> tol:float -> float option
