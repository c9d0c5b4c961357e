(** LU factorization with partial pivoting, for the real MNA systems at the
    heart of DC analysis and AWE moment generation.

    AWE factors the conductance matrix G once and then back-substitutes once
    per moment, so factorization and solving are exposed separately. *)

(** A factorization PA = LU: [lu] holds L (unit diagonal, below) and U
    (on and above the diagonal) in one matrix, [piv.(i)] is the row of A
    that became row [i], and [sign] is the permutation's parity (+1 or
    -1). Read-only; only {!factor} builds it. *)
type t = private { lu : Mat.t; piv : int array; sign : float }

exception Singular of int
(** Raised with the pivot column when a zero (or numerically negligible)
    pivot is met. *)

(** [factor a] computes PA = LU. [a] is not modified.
    @raise Singular if the matrix is numerically singular. *)
val factor : Mat.t -> t

(** [factor_in_place a] is [factor a] computed in [a]'s own storage,
    without the copy: [a] is overwritten with the factors and the result
    keeps it, so the caller must own [a] and leave it alone for as long as
    the result is used. The factors are the same bits as [factor a].
    @raise Singular as [factor] (with [a] then partly eliminated). *)
val factor_in_place : Mat.t -> t

(** [solve lu b] solves A x = b for the factored A. *)
val solve : t -> Vec.t -> Vec.t

(** [solve_in_place lu b] overwrites [b] with the solution, avoiding the
    allocation in the AWE moment loop. *)
val solve_in_place : t -> Vec.t -> unit

(** [solve_transposed lu b] solves A^T x = b (used for adjoint sensitivity). *)
val solve_transposed : t -> Vec.t -> Vec.t

(** [det lu] is the determinant of the factored matrix. *)
val det : t -> float

(** [rcond_estimate lu a] is a cheap reciprocal-condition estimate in the
    infinity norm (1 / (||A|| * ||A^-1 e||) for a probing vector e). Values
    near 0 flag ill-conditioning; a singular-direction hit (zero solve or
    matrix norm) reports exactly 0.0. *)
val rcond_estimate : t -> Mat.t -> float
