(** The structured telemetry events of an OBLX annealing run.

    Every event carries the restart index (so domain-parallel multi-start
    traces interleave safely and can be demultiplexed), the number of moves
    decided so far, the current annealing temperature and the measured
    acceptance ratio. The body distinguishes:

    - [Restart]: one per annealing run, emitted before the first move;
    - [Move]: one per decided move (accept / reject / inapplicable), with
      the post-decision cost and — for accepted moves, when a state view is
      installed — the full design-point vector, which is what makes traces
      replayable (see {!Replay});
    - [Stage]: one per annealing stage, with the Hustin move-class
      selection probabilities;
    - [Weight_update]: the adaptive penalty weights after their per-stage
      update, together with the cost decomposed into objective and
      per-penalty terms (paper eq. (2));
    - [Done]: the run's outcome, including the abort reason when a
      multi-start scheduler cut the run short. *)

type level = Off | Summary | Stage | Moves

val level_to_string : level -> string
val level_of_string : string -> (level, string) result

(** [level_leq a b] — [a] is recorded when tracing at level [b]. *)
val level_leq : level -> level -> bool

type decision = Accepted | Rejected | Inapplicable

(** Incremental-evaluator cache behaviour for one move class
    (see [Eval.Incr] in the core library). *)
type eval_class = {
  ec_name : string;
  ec_evals : int;
  ec_dirty : int;  (** total dirty variables across this class's evals *)
  ec_op_hits : int;
  ec_op_misses : int;
  ec_rom_builds : int;
  ec_rom_reuses : int;
}

(** Cumulative incremental-evaluation counters for one restart: full vs
    incremental evaluations, device-op memo and AWE-ROM cache behaviour,
    periodic resync verification results. *)
type evals_data = {
  full : int;
  incr : int;
  dirty_vars : int;
  op_hits : int;
  op_misses : int;
  rom_builds : int;
  rom_reuses : int;
  spec_evals : int;
  spec_reuses : int;
  resyncs : int;
  resync_mismatches : int;  (** nonzero = incremental evaluator bug *)
  probes : int;  (** batched candidate screenings *)
  probe_rom_builds : int;  (** jigs refit on the probe path *)
  per_class : eval_class list;
}

type body =
  | Restart of { total_moves : int; classes : string array }
  | Move of {
      cls : int;  (** move-class index into the run's [classes] *)
      class_name : string;
      decision : decision;
      delta_cost : float;
      cost : float;  (** scalar cost after the decision *)
      state : (float array * int array) option;
          (** (values, grid indices) after an accepted move *)
    }
  | Stage of {
      stage : int;
      current_cost : float;
      best_cost : float;
      probs : float array;  (** Hustin class-selection probabilities *)
    }
  | Weight_update of {
      w_perf : float;
      w_dev : float;
      w_dc : float;
      c_obj : float;  (** unweighted objective term *)
      c_perf : float;  (** unweighted performance-penalty term *)
      c_dev : float;  (** unweighted device-region penalty term *)
      c_dc : float;  (** unweighted relaxed-dc penalty term *)
    }
  | Evals of evals_data  (** per-stage snapshot of {!evals_data} *)
  | Done of {
      best_cost : float;
      final_cost : float;
      accepted : int;
      stages : int;
      froze_early : bool;
      aborted : bool;
      abort_reason : string option;
    }

type t = {
  restart : int;
  moves : int;
  temperature : float;
  acceptance : float;
  body : body;
}

(** The minimum trace level at which this event is recorded. *)
val level_of_body : body -> level

val kind : t -> string  (** short tag: "restart" | "move" | ... *)

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result

(** [diff ~tol a b] is [None] when [a] and [b] are structurally equal
    with relative tolerance [tol] on every float field (the golden-trace
    diff, where a rebuilt binary may differ in the last bits of libm
    results), otherwise a short human-readable description of the first
    difference found. *)
val diff : tol:float -> t -> t -> string option
