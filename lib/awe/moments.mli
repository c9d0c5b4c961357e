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

