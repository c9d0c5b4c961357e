(** Dense complex matrices and LU solve, used by the direct AC analysis
    (G + jwC) x = b that serves as the reference against AWE. *)

type t

val create : int -> int -> t
val set : t -> int -> int -> Cpx.t -> unit

(** [of_real_pair g c w] builds G + jwC from real matrices of equal shape. *)
val of_real_pair : Mat.t -> Mat.t -> float -> t

(** [set_real_pair t g c w] overwrites [t] with G + jwC, the entries
    [of_real_pair g c w] gives, without allocating: a frequency scan
    refills one matrix per frequency. *)
val set_real_pair : t -> Mat.t -> Mat.t -> float -> unit

exception Singular of int

(** [solve a b] solves A x = b by LU with partial pivoting. [a] is
    destroyed. @raise Singular on numerically singular systems. *)
val solve : t -> Cpx.t array -> Cpx.t array

(** [solve_in_place a xr xi] is [solve] on a right-hand side given as
    its real and imaginary parts, which it overwrites with the solution's
    (the same bits as [solve]). *)
val solve_in_place : t -> float array -> float array -> unit
