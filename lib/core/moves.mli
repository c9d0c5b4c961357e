(** The OBLX move palette (paper Section V.A, "Move-Set").

    Classes:
    - ["user-disc"]: step one discrete user variable on its grid, window
      width controlled by a per-variable range limiter;
    - ["user-cont"]: Gaussian perturbation of a continuous user variable;
    - ["node-v"]: Gaussian perturbation of one relaxed-dc node voltage;
    - ["nr-partial"]: one damped Newton-Raphson step on all node voltages,
      using the bias network's nodal admittance Jacobian;
    - ["nr-full"]: Newton-Raphson iterated to (local) convergence;
    - ["multi"]: simultaneous perturbation of several variables.

    Hustin's move selection learns which class pays at each phase of the
    anneal; range limiters adapt per-variable step sizes. *)

type t

val classes : string array

(** Per class, whether batched candidate screening applies ({!Oblx}'s
    probe batches). The Newton-Raphson classes propose through exact
    residual/Jacobian solves and are excluded — screening them would
    re-run the expensive part per candidate to save one evaluation. *)
val screenable : bool array

(** [make ?session p] — with [session], the Newton-Raphson move classes
    read KCL residuals and device operating points out of the shared
    incremental-evaluation caches ({!Eval.Incr}) instead of re-sweeping
    the bias network; the values served are bitwise identical. *)
val make : ?session:Eval.Incr.session -> Problem.t -> t

(** [propose ctx st k rng] applies a move of class [k] to [st] in place and
    returns the undo thunk; [None] when inapplicable. *)
val propose : t -> State.t -> int -> Anneal.Rng.t -> (unit -> unit) option

(** [record_result ctx k ~accepted] feeds the range limiter of the variable
    touched by the last move of class [k]. *)
val record_result : t -> int -> accepted:bool -> unit

(** [ranges_converged ctx] — continuous step scales have collapsed,
    half of OBLX's freezing criterion. *)
val ranges_converged : t -> bool

(** [newton_step p st ~damping] performs one damped NR update of the node
    variables in place, returning the max absolute voltage change; exposed
    for tests. *)
val newton_step : Problem.t -> State.t -> damping:float -> float option

(** [newton_step_with ?session p st ~damping] is {!newton_step} with the
    residuals and Jacobian operating points served from an incremental
    session's caches (bitwise-identical values). *)
val newton_step_with :
  ?session:Eval.Incr.session -> Problem.t -> State.t -> damping:float -> float option

(** [newton_global p st] solves the bias network with the full reference
    DC engine (gmin/source stepping) and writes the node voltages back
    into the relaxed-dc state; false when the solve fails. *)
val newton_global : Problem.t -> State.t -> bool
