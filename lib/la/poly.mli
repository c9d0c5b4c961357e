(** Real-coefficient polynomials in ascending order: [c.(k)] multiplies s^k.

    These carry the AWE characteristic polynomials; roots are complex, so
    complex evaluation is provided. *)

type t = float array

(** [degree c] ignores trailing (numerically zero) high coefficients. *)
val degree : t -> int

(** [trim c] drops trailing zero coefficients (keeps at least one). *)
val trim : t -> t

val eval : t -> float -> float
val eval_cpx : t -> Cpx.t -> Cpx.t

(** [eval_cpx_at c ~re ~im i ~out] writes the real and imaginary parts of
    [c] at [re.(i) + j im.(i)] to [out.(0)] and [out.(1)]: the bits of
    [eval_cpx], with no complex value allocated. *)
val eval_cpx_at : t -> re:float array -> im:float array -> int -> out:float array -> unit
val derivative : t -> t
val mul : t -> t -> t
val add : t -> t -> t
val scale : float -> t -> t

(** [from_roots roots] expands prod (s - r_k). Complex roots must come in
    conjugate pairs for the result to be (numerically) real; the imaginary
    residue is discarded. *)
val from_roots : Cpx.t array -> t

(** [normalize c] divides by the leading coefficient, making it monic.
    @raise Invalid_argument on the zero polynomial. *)
val normalize : t -> t

val pp : Format.formatter -> t -> unit
