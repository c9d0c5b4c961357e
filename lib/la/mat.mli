(** Dense row-major matrices of floats.

    Nomenclature: [a] is a matrix, [x], [y], [b] are vectors, [i] a row
    index, [j] a column index. *)

(** The storage is exposed read-only so the numeric kernels ({!Lu},
    {!Sparse}, AWE moments) can index it directly: entry
    (i, j) lives at [a.((i * n) + j)], [Array.length a = m * n]. Only
    this module builds values of the type, so that layout always holds;
    writing through [a] is how a kernel updates a matrix it owns. *)
type t = private { m : int; n : int; a : float array }

(** [create m n] is an [m] x [n] zero matrix. *)
val create : int -> int -> t

val init : int -> int -> (int -> int -> float) -> t
val identity : int -> t
val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

(** [add_to a i j v] adds [v] to entry (i, j) — the stamping primitive
    used by MNA assembly. *)
val add_to : t -> int -> int -> float -> unit

val copy : t -> t
val fill : t -> float -> unit
val transpose : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t

(** [mul a b] is the matrix product. *)
val mul : t -> t -> t

(** [mul_vec a x] is [a * x]. *)
val mul_vec : t -> Vec.t -> Vec.t

(** [norm_inf a] is the max row-sum norm. *)
val norm_inf : t -> float

(** [of_arrays rows] builds a matrix from row arrays of equal length. *)
val of_arrays : float array array -> t

val to_arrays : t -> float array array
val pp : Format.formatter -> t -> unit
