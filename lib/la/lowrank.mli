(** Sherman-Morrison-Woodbury rank-k updates of a retained {!Lu}
    factorization.

    For A factored once and a perturbation A' = A + U V^T of rank r << n,
    [update] prepares a solver for A' that costs two triangular solves
    against the retained factorization plus an r x r capacitance solve —
    no fresh O(n^3) factorization. This is the screening engine behind
    incremental AWE: an annealing move perturbs a handful of element
    stamps, which touch a handful of MNA columns.

    The update is refused ([Error]) when it would be numerically unsafe:
    the capacitance matrix I + V^T A^{-1} U is singular or has a
    reciprocal-condition estimate below [rcond_min] (default 1e-10), or
    the update directions grow beyond [growth_max] (default 1e12) through
    the base inverse. Callers must fall back to a fresh {!Lu.factor}. *)

type t

(** [rank t] is the rank r of the applied update (0 means the solver is
    the plain retained factorization). *)
val rank : t -> int

(** [dim t] is the order n of the underlying system. *)
val dim : t -> int

(** [update base ~u ~v] prepares solves against A + U V^T, where [base]
    factors A and [u], [v] are dense n x r. The capacitance matrix is
    factored and the A^{-1}U / A^{-T}V blocks are precomputed eagerly, so
    all the guard checks happen here, not at solve time. *)
val update :
  ?rcond_min:float -> ?growth_max:float -> Lu.t -> u:Mat.t -> v:Mat.t ->
  (t, string) result

(** [update_cols base ~cols ~u] is the element-stamp special case:
    A' = A + U V^T with V the unit vectors e_[cols.(j)], so column j of
    the dense n x r [u] is the change to column [cols.(j)] of A. The
    capacitance matrix then needs no inner products, just row picks of
    A^{-1}U. *)
val update_cols :
  ?rcond_min:float -> ?growth_max:float -> Lu.t -> cols:int array ->
  u:Mat.t -> (t, string) result

(** [solve t b] solves (A + U V^T) x = b. *)
val solve : t -> Vec.t -> Vec.t

(** [solve_in_place t b] overwrites [b] with the solution, avoiding the
    allocation in the moment-vector refresh loop. *)
val solve_in_place : t -> Vec.t -> unit

(** [solve_transposed t b] solves (A + U V^T)^T x = b, reusing the same
    capacitance factorization (its transpose is the transposed system's
    capacitance matrix). *)
val solve_transposed : t -> Vec.t -> Vec.t

(** [solve_transposed_in_place t b] overwrites [b] with the transposed
    solution. *)
val solve_transposed_in_place : t -> Vec.t -> unit
