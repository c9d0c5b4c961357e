(** Dense complex matrices and LU solve, used by the direct AC analysis
    (G + jwC) x = b that serves as the reference against AWE. *)

type t

val create : int -> int -> t
val set : t -> int -> int -> Cpx.t -> unit

(** [of_real_pair g c w] builds G + jwC from real matrices of equal shape. *)
val of_real_pair : Mat.t -> Mat.t -> float -> t

exception Singular of int

(** [solve a b] solves A x = b by LU with partial pivoting. [a] is
    destroyed. @raise Singular on numerically singular systems. *)
val solve : t -> Cpx.t array -> Cpx.t array
