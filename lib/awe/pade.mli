(** Padé approximation of a moment series: fit a strictly proper q-pole
    model H(s) = sum_i k_i / (s - p_i) whose first 2q Maclaurin
    coefficients match the given moments.

    Moments are rescaled internally (s -> s/w0) before the Hankel solve;
    AWE moments for MHz-range circuits otherwise span hundreds of orders of
    magnitude and destroy the conditioning. *)

type rom = {
  poles : La.Cpx.t array;
  residues : La.Cpx.t array;
  q : int;
  scale : float;  (** the frequency scale w0 used internally, rad/s *)
}

(** [fit ~q moments] requires [Array.length moments >= 2q].
    Errors: singular Hankel system, degenerate root-finding. *)
val fit : q:int -> float array -> (rom, string) result

(** Moments in the rescaled domain s' = s / w0: [m.(k)] is [m_k * w0^k].
    They depend on the moments alone, so an order descent scales once and
    fits every order from the same vector. *)
type scaled = { w0 : float; m : float array }

val scale_moments : float array -> scaled

(** Numerator/denominator coefficients in the internally rescaled domain —
    the cheap first phase of [fit], before any root finding. *)
type coeffs = { qpoly : La.Poly.t; ppoly : La.Poly.t; w0 : float }

val fit_coeffs : q:int -> scaled -> (coeffs, string) result

(** [series_matches c s ~q ~tol] checks by power-series division
    (no roots needed) that P/Q reproduces the first 2q scaled moments. *)
val series_matches : coeffs -> scaled -> q:int -> tol:float -> bool

(** [routh_stable qpoly] is the Routh-Hurwitz left-half-plane test on a
    denominator polynomial (ascending coefficients) — stability screening
    with no root finding. Degenerate Routh arrays report unstable. *)
val routh_stable : La.Poly.t -> bool

(** [rom_of_coeffs c ~q] finds poles and residues for a verified fit. *)
val rom_of_coeffs : coeffs -> q:int -> (rom, string) result

(** [moments rom n] holds the first [n] Maclaurin coefficients of the
    fitted model — used to verify the fit against the input moments. *)
val moments : rom -> int -> float array

(** [eval rom ~w] is H(jw). *)
val eval : rom -> w:float -> La.Cpx.t

(** [eval_into rom ~w out] writes the real and imaginary parts of H(jw)
    to [out.(0)] and [out.(1)]: the bits of [eval], with no complex value
    allocated. *)
val eval_into : rom -> w:float -> float array -> unit

(** [stable rom] is true when every pole has a negative real part. *)
val stable : rom -> bool
