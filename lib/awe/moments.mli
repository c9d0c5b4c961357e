(** AWE moment generation.

    For the linearized system (G + sC) x(s) = b and output y = sel . x, the
    transfer function's Maclaurin coefficients ("moments") are
    m_k = sel . r_k with r_0 = G^-1 b and r_(k+1) = -G^-1 C r_k.

    G is LU-factored once; each further moment costs one matrix-vector
    product and one back-substitution — this is why AWE is orders of
    magnitude faster than frequency-by-frequency simulation. *)

(** [compute lin ~b ~sel ~count] returns the first [count] moments.
    A tiny diagonal regularization (1e-12 S) keeps G factorable when a node
    has no DC path (capacitor-only nodes).
    @raise Failure if G is singular beyond that. *)
val compute : Mna.Linearize.t -> b:La.Vec.t -> sel:La.Vec.t -> count:int -> float array

(** [factored lin] exposes the one-time factorization so callers evaluating
    many outputs against the same G can share it. *)
type factored

val factor : Mna.Linearize.t -> factored
val compute_with : factored -> b:La.Vec.t -> sel:La.Vec.t -> count:int -> float array

(** {2 Low-rank probe updates} *)

type update

(** [prepare_update fac ~g_old ~g_new ~c_old ~c_new] diffs the stamped
    matrices bitwise and prepares a probe solver for the perturbed
    system: the retained factorization itself when no conductance column
    moved, otherwise an SMW update over the changed columns (the 1e-12
    regularization cancels in the delta). [Error] means the update is
    numerically unsafe (ill-conditioned capacitance matrix or growth
    bound) and the caller must factor fresh. *)
val prepare_update :
  ?rcond_min:float -> ?growth_max:float -> factored -> g_old:La.Mat.t ->
  g_new:La.Mat.t -> c_old:La.Mat.t -> c_new:La.Mat.t -> (update, string) result

(** [update_rank u] is the rank of the conductance delta (0 = G untouched). *)
val update_rank : update -> int

(** [compute_probe u ~b ~sel ~count] computes screening moments for the
    perturbed system: the same recurrence as {!compute_with}, solved
    through the retained factorization when no conductance column moved
    (then the bits equal a fresh {!compute_with} on the perturbed system)
    and through the SMW update otherwise. Probe moments are approximate by
    design; only the confirm path's exact recompute feeds accepted costs. *)
val compute_probe : update -> b:La.Vec.t -> sel:La.Vec.t -> count:int -> float array
