(** Canonical content hashing of circuits and whole problem descriptions —
    the compile-cache key of the synthesis service (lib/serve).

    Two descriptions get the same hash exactly when they elaborate to the
    same flat circuits and carry the same synthesis cards: element order
    inside a body, subcircuit-instantiation order, comments, whitespace and
    the [.title] card are all canonicalized away, while any semantic change
    — a node, a value expression, a model parameter, a variable range, a
    spec bound, a device-region override — produces a different hash. *)

(** [circuit_hash c] — hex digest of the elaborated circuit, invariant
    under element reordering (elements are compared by their canonical
    rendering, with node indices resolved back to names). *)
val circuit_hash : Circuit.t -> string

(** [problem_hash ast] — hex digest of the whole problem: the elaborated
    bias and jig circuits plus every synthesis card (models, process,
    params, vars, pz, specs, regions), each section canonically ordered.
    [.title] and line counts are cosmetic and excluded. A description that
    fails to elaborate still hashes (over its raw cards), so the cache can
    also remember failures. *)
val problem_hash : Ast.problem -> string

(** [problem_shape_hash ast] — like {!problem_hash} but under a "shape:v1"
    header and with the spec [good]/[bad] target values canonicalized away.
    Spec structure (name, kind, measured expression, corner qualifier),
    topology and every other card still contribute, so two descriptions
    collide exactly when they pose the same synthesis problem with tweaked
    spec targets — the key of the warm-start winner corpus: a prior winner
    is a useful seed precisely when the variable space and cost landscape
    shape are shared, even though the targets moved. *)
val problem_shape_hash : Ast.problem -> string
