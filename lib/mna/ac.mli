(** Direct (non-AWE) AC analysis: solve (G + jwC) x = b frequency by
    frequency. This is the independent reference that AWE's reduced-order
    answers are compared against (the "Simulation" columns of Tables 2-3).

    A frequency scan ([sweep], [unity_gain_freq], [phase_margin_at],
    [bandwidth_3db]) refills one complex matrix and one pair of float
    planes at every frequency instead of allocating them; each point has
    the bits of [transfer] at that frequency. *)

(** [solve_at lin ~b ~w] solves the linearized system at angular frequency
    [w] rad/s for the given excitation. *)
val solve_at : Linearize.t -> b:La.Vec.t -> w:float -> La.Cpx.t array
  (** full complex unknown vector *)

(** [transfer lin ~b ~sel ~w] is sel . x(jw) — one point of a transfer
    function. *)
val transfer : Linearize.t -> b:La.Vec.t -> sel:La.Vec.t -> w:float -> La.Cpx.t

(** [sweep lin ~b ~sel freqs] evaluates the transfer function at the given
    frequencies (hertz). *)
val sweep : Linearize.t -> b:La.Vec.t -> sel:La.Vec.t -> float array -> La.Cpx.t array

(** [dc_gain lin ~b ~sel] is the zero-frequency transfer value. *)
val dc_gain : Linearize.t -> b:La.Vec.t -> sel:La.Vec.t -> float

(** [unity_gain_freq lin ~b ~sel] finds the frequency (Hz) where
    |H(jw)| = 1 by bisection on a log-frequency grid; [None] if |H| never
    crosses unity in [1 Hz, 100 GHz]. *)
val unity_gain_freq : Linearize.t -> b:La.Vec.t -> sel:La.Vec.t -> float option

(** [phase_margin_at lin ~b ~sel ~fu] is 180 + arg H(j 2 pi fu) in
    degrees, the phase unwrapped from 1 Hz, at the unity-gain frequency
    [fu] (Hz) that [unity_gain_freq] found. *)
val phase_margin_at : Linearize.t -> b:La.Vec.t -> sel:La.Vec.t -> fu:float -> float

(** [bandwidth_3db lin ~b ~sel] is the -3 dB frequency (Hz) by direct
    scan: the first point of the ladder 1 Hz, 1.05 Hz, ... where |H| falls
    below |H(0)|/sqrt 2, or 1e12 when none does by then. *)
val bandwidth_3db : Linearize.t -> b:La.Vec.t -> sel:La.Vec.t -> float

