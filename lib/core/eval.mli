(** The cost-function evaluator ASTRX compiles: given a design state x it
    produces the bias point (device operating points + KCL residuals of the
    relaxed-dc formulation), the AWE reduced-order models of every test-jig
    transfer function, the measured specification values, and the scalar
    cost C(x) of paper eq. (5):

    C(x) = C_obj + C_perf + C_dev + C_dc *)

type bias_point = {
  node_v : float array;  (** absolute voltage per bias-circuit node *)
  ops : (string * Mna.Dc.op_info) list;
  residuals : float array;  (** KCL residual (A) per free variable *)
  res_scale : float array;  (** sum of |branch currents| per free variable *)
  node_leaving : float array;
      (** per node, total current leaving into non-source elements — used
          by the [supply_current] spec function *)
}

(** [value_env p st] evaluates element-value expressions: user variables,
    parameters, and the math builtins of {!Spec.math_call}. *)
val value_env : Problem.t -> State.t -> Netlist.Expr.env

(** [node_voltages p st] maps the tree-link assignment onto the state. *)
val node_voltages : Problem.t -> State.t -> float array

val bias_point : Problem.t -> State.t -> bias_point

(** [residuals_quick p st] recomputes only the KCL residual vector — the
    inner loop of Newton-Raphson moves. *)
val residuals_quick : Problem.t -> State.t -> float array

exception Measurement_failed of string

(** [active_area_um2 p st] is the summed device area of the circuit under
    design, square microns. *)
val active_area_um2 : Problem.t -> State.t -> float

(** [transient_response p ~value ~tf ~vstep ~tstop ~dt] runs the shared
    step-stimulus transient over the jig owning [tf]: the source the tf
    names steps by [vstep] at [tstop/10]. Returns the simulation, the tf
    ports and the step onset time. Both the in-loop step responses (at
    the coarse [dtloop] budget) and {!Verify} (at the exact [dt]) measure
    through this one helper, so they share stimulus and overlap-window
    semantics exactly.
    @raise Measurement_failed on an unknown tf or a failed simulation. *)
val transient_response :
  Problem.t ->
  value:(Netlist.Expr.t -> float) ->
  tf:string ->
  vstep:float ->
  tstop:float ->
  dt:float ->
  Mna.Tran.t * Problem.tf * float

(** [step_wave p ~value tf ~dt] is [tf]'s step response under its jig's
    [.tran] card, at the step size [dt card] — the [step] primitive of both
    {!Spec.backend}s. @raise Measurement_failed as {!transient_response}. *)
val step_wave :
  Problem.t ->
  value:(Netlist.Expr.t -> float) ->
  Spec.tf ->
  dt:(Netlist.Ast.tran_card -> float) ->
  Spec.wave

(** [output_noise_v2_per_hz lin ~value ~ops ~sel] is the dc output noise
    density of the linearized jig in V^2/Hz, via one adjoint solve
    G^T y = sel: resistor thermal, MOS channel thermal and BJT shot
    sources. @raise Measurement_failed on a singular system. *)
val output_noise_v2_per_hz :
  Mna.Linearize.t ->
  value:(Netlist.Expr.t -> float) ->
  ops:(string -> Mna.Dc.op_info option) ->
  sel:La.Vec.t ->
  float

type measured = {
  bias : bias_point;
  roms : (string * (Awe.Rom.t, string) result) list;  (** per transfer function *)
  spec_values : (string * float option) list;  (** None = measurement failed *)
}

val measure : Problem.t -> State.t -> measured

type breakdown = {
  c_obj : float;
  c_perf : float;
  c_dev : float;
  c_dc : float;
  total : float;
  measured : measured;
}

(** [cost p w st] — the full evaluation, with [w] the current adaptive
    weights. *)
val cost : Problem.t -> Weights.t -> State.t -> breakdown

(** [cost_scalar] is [cost] without keeping the breakdown. *)
val cost_scalar : Problem.t -> Weights.t -> State.t -> float

(** Normalized spec terms, exposed for the adaptive-weight controller:
    objective contributions and penalty contributions before weighting. *)
val raw_terms : Problem.t -> State.t -> measured -> float * float * float * float

(** [cost_of_spec_values p vals] is the (objective, penalty) pair from the
    good/bad normalization alone — shared with the simulation-based
    baseline optimizer, which has no relaxed-dc or device-region terms. *)
val cost_of_spec_values :
  Problem.t -> (string * float option) list -> float * float

(** [breakdown_of p w st m] folds an already-measured point into the cost
    breakdown — the final stage [cost] runs, exposed so {!Incr} can share
    it bit for bit. *)
val breakdown_of : Problem.t -> Weights.t -> State.t -> measured -> breakdown

(** Incremental move-scoped evaluation (docs/PERFORMANCE.md).

    A session is a per-domain arena (docs/PARALLEL.md): all of its
    arrays are allocated once in {!Incr.create} and written in place on
    the hot path, so steady-state evaluation allocates almost nothing —
    the property the domain-parallel {!Core.Oblx.best_of} depends on to
    keep minor-GC stop-the-world barriers rare.

    A session owns caches for one annealing run: per-element KCL flow
    contributions and device operating points (with a small memo keyed on
    the exact geometry + terminal-voltage bits), per-jig AWE ROM lists,
    and per-spec measured values. After a move, only the slice of the
    cost function reachable from the changed variables through
    {!Problem.depgraph} is re-evaluated; the final fold reuses the full
    evaluator's own code (same element order, same addition order), so
    the returned breakdown is bit-identical to {!cost}. A periodic
    resync recomputes from scratch and verifies exactly that. *)
module Incr : sig
  type session

  (** Per-move-class cache behaviour, for telemetry. *)
  type class_row = {
    cr_class : string;
    cr_evals : int;
    cr_dirty_vars : int;
    cr_op_hits : int;
    cr_op_misses : int;
    cr_rom_builds : int;
    cr_rom_reuses : int;
  }

  type stats = {
    full_evals : int;  (** from-scratch evaluations (unprimed or resync) *)
    incr_evals : int;  (** evaluations served from a primed session *)
    dirty_vars : int;  (** total dirty variables across incremental evals *)
    op_hits : int;  (** device-op memo hits *)
    op_misses : int;  (** device-op model evaluations *)
    rom_builds : int;  (** jig ROM lists rebuilt *)
    rom_reuses : int;  (** jig ROM lists served from cache *)
    spec_evals : int;
    spec_reuses : int;
    resyncs : int;  (** periodic full-recompute verifications *)
    resync_mismatches : int;  (** resyncs that caught a divergence (bug) *)
    probes : int;  (** candidate screenings served by [probe_cost] *)
    probe_rom_builds : int;  (** touched jigs refit on the probe path *)
    probe_fallbacks : int;
    mom_reuses : int;
    mom_refreshes : int;
        (** always 0: every probe refit factors fresh, and probes have no
            moment-vector tiers; the three fields stay for existing
            readers of this record *)
    dirty_hist : int array;
        (** histogram of dirty-variable counts per incremental eval;
            last bucket accumulates everything >= its index *)
    by_class : class_row list;
  }

  (** [create ?resync_every p] — a fresh, unprimed session. Every
      [resync_every] incremental evaluations (default 1024) the result is
      verified bitwise against a from-scratch {!Eval.cost}. *)
  val create : ?resync_every:int -> Problem.t -> session

  val problem : session -> Problem.t

  (** Tag subsequent evaluations with a move-class name for [stats]. *)
  val set_class : session -> string -> unit

  (** Drop all caches; the next evaluation runs from scratch. *)
  val invalidate : session -> unit

  (** [reset ss] returns the session to its just-created state — caches
      dropped AND counters zeroed — without reallocating any of its
      arrays. A reset session is observationally identical to a fresh
      [create]: {!Core.Oblx.best_of} resets one per-domain session
      between restarts instead of allocating a new arena each time. *)
  val reset : session -> unit

  (** Bit-identical to [Eval.cost p w st]. *)
  val cost : session -> Weights.t -> State.t -> breakdown

  val cost_scalar : session -> Weights.t -> State.t -> float

  (** [probe_cost ss w st] screens a candidate state: an approximate
      total cost computed against the session's retained caches. The
      candidate goes through the same dependency walk and element kernel
      as {!cost}, into probe scratch; its node sums retract and re-add
      only the dirty elements' flows; every jig a dirty element reaches
      is restamped into a per-jig probe buffer and refit at reduced
      moment order through a fresh factorization; specs are re-measured
      only where the candidate reaches. At
      the session's own exact state nothing is dirty and the screen
      returns {!cost}'s total bit for bit. Probing never writes the exact
      caches: any number of probes may run between two exact evaluations
      without changing what [cost] returns. Accepted states must be
      confirmed through {!cost}, which is what the annealer's batched
      screening does. *)
  val probe_cost : session -> Weights.t -> State.t -> float

  (** Bit-identical to [Eval.residuals_quick p st], but served from the
      cached bias slice — the Newton-Raphson inner loop. *)
  val residuals_quick : session -> State.t -> float array

  (** [bias_view ss st] syncs and exposes the cached node voltages and
      operating points (element order) — shared with the NR Jacobian so
      the move generator evaluates each device model once per point. *)
  val bias_view :
    session -> State.t -> float array * (string * Mna.Dc.op_info) list

  (** Bit-identical to [Eval.measure p st]. *)
  val measure_with : session -> State.t -> measured

  val stats : session -> stats
end
