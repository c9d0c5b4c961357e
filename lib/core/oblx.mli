(** OBLX — the solution engine: simulated annealing over the compiled cost
    function, with adaptive weights, Hustin move selection, Lam cooling,
    range-limiter freezing and a final Newton-Raphson polish that makes the
    winning design dc-correct to simulator-like tolerances. *)

type trace_point = {
  tp_moves : int;
  tp_cost : float;
  tp_best : float;
  tp_max_kcl_rel : float;  (** worst relative KCL violation *)
  tp_max_kcl_abs : float;  (** worst absolute KCL current, A *)
  tp_temperature : float;
}

type result = {
  final : State.t;  (** best design found, NR-polished *)
  predicted : (string * float option) list;  (** OBLX's own spec predictions *)
  best_cost : float;
  moves : int;
  accepted : int;
  froze_early : bool;
  cut_short : bool;  (** stopped by its cutoff (deadline or cancellation) *)
  cut_reason : string option;
      (** why the run was cut short — the cutoff's verdict, preserved
          rather than collapsed into the boolean; [None] unless
          [cut_short] *)
  evals : int;  (** cost-function evaluations performed *)
  eval_time_ms : float;  (** mean wall time per evaluation *)
  run_time_s : float;
  trace : trace_point list;  (** per-stage, oldest first (Fig. 2 data) *)
  eval_stats : Eval.Incr.stats option;
      (** incremental-evaluation cache counters, when enabled *)
  probs : float array;
      (** end-of-run Hustin move-class distribution — the learned prior a
          warm-started successor restores *)
  warm : string option;
      (** label of the warm seed this run started from; [None] = cold *)
}

(** A warm seed: a prior winner's design point (and optionally its
    converged Hustin distribution) used as the starting point of a restart
    instead of the description's initial values. The arrays are copied on
    use; the seed itself is never mutated. *)
type warm_start = {
  ws_label : string;  (** provenance, recorded in [result.warm] *)
  ws_values : float array;
  ws_grid : int array;
  ws_probs : float array option;  (** learned move-class prior, if recorded *)
}

(** A run's cutoff, polled before the first move and then once per
    annealing stage with the run's progress in [0,1] and its best cost so
    far: [Some reason] aborts the run, and the reason is preserved in
    [result.cut_reason] and the trace's [Done] event. *)
type control = progress:float -> best:float -> string option

(** [synthesize ?seed ?rng ?moves ?control ?obs p] runs one annealing run.
    [moves] defaults to [2000 * n_vars] clamped to a practical budget.
    [rng] (a stream from {!Anneal.Rng.split}) overrides [seed]; [control]
    is the run's cutoff (deadlines and cancellation).

    [session] supplies an existing incremental-evaluation arena (created
    for the same problem) instead of allocating one: it is
    {!Eval.Incr.reset} on entry, so results are bit-identical to a run
    with a fresh session. This is how {!best_of} keeps one arena per
    domain across all the restarts that domain claims.

    [probe_batch] (default {!default_probe_batch}) enables batched
    candidate screening when the incremental evaluator is on: for each
    screenable move class the annealer proposes up to [probe_batch]
    candidates, orders them with {!Eval.Incr.probe_cost} (a reduced-order
    approximate screen that never writes the exact caches), then replays
    and confirms only the winner through the exact path — so every
    accepted state's cost is still bit-identical to {!Eval.cost}.
    [probe_batch <= 1], or [incremental:false], disables screening and
    reproduces the classic one-candidate trajectory.

    [warm] starts the anneal from a {!warm_start} seed instead of the
    description's initial point, and — when the seed carries [ws_probs] —
    initializes Hustin move selection from the recorded prior. A warm run
    draws from [rng] differently from the first probe on (the landscape
    around the seed differs), so warm and cold trajectories diverge by
    design; with [warm = None] the run is bit-identical to one before the
    parameter existed. Raises [Invalid_argument] when the seed's arity
    does not match [p].

    [obs] (default {!Obs.Trace.none}) receives the structured telemetry of
    docs/OBSERVABILITY.md: a [Restart] event, the annealer's [Move]/[Stage]
    stream (accepted moves carry the design point, making the trace
    replayable), a [Weight_update] per stage with the eq. (2) cost
    breakdown, and a final [Done] with the abort reason if any. Emission
    never touches the RNG, so a traced run is bit-identical to an untraced
    one. *)
val synthesize :
  ?seed:int ->
  ?rng:Anneal.Rng.t ->
  ?moves:int ->
  ?incremental:bool ->
  ?probe_batch:int ->
  ?session:Eval.Incr.session ->
  ?control:control ->
  ?warm:warm_start ->
  ?obs:Obs.Trace.t ->
  Problem.t ->
  result

(** Candidates screened per move when batched probing is on — the
    [probe_batch] default of {!synthesize}, {!best_of} and
    {!run_job}. *)
val default_probe_batch : int

(** [score p r] is the value the multi-start winner rule minimizes: the
    run's [best_cost], pushed last (+1e6) when any spec prediction failed
    and the problem has specs. {!best_of} folds it with strict [<] in
    ascending restart order, keeping the earliest on ties; the serve pool
    records the winner's score on each job. *)
val score : Problem.t -> result -> float

(** Default worker count for {!best_of}:
    [Domain.recommended_domain_count () - 1], at least 1 — keep one core
    for the caller. *)
val default_jobs : unit -> int

(** What one worker domain did during a {!best_of} parallel section —
    the raw material of [bench perf-parallel]'s GC/contention block. GC
    numbers are {!Gc.quick_stat} deltas over the worker's lifetime, on
    its own domain (per-domain minor heaps, shared major heap). *)
type domain_report = {
  d_index : int;  (** 0 is the calling domain *)
  d_restarts : int;  (** restarts this domain claimed *)
  d_wall_s : float;
  d_minor_collections : int;
      (** each one is a stop-the-world barrier across every domain *)
  d_major_collections : int;
  d_promoted_words : float;
  d_minor_words : float;  (** words allocated in this domain's nursery *)
}

type parallel_report = {
  pr_jobs : int;
  pr_runs : int;
  pr_domains : domain_report list;  (** by [d_index], one per worker *)
}

(** Minor-heap size (words) each worker domain adopts during a parallel
    section. In OCaml 5 a minor collection is a stop-the-world barrier
    across every domain, so worker nurseries are sized large enough that
    the arena-based evaluator rarely fills them. Spawned domains do not
    inherit the parent's Gc settings — any long-lived worker domain (the
    serve pool's, for instance) should set this itself. *)
val arena_minor_heap_words : int

(** [best_of ?seed ?moves ?jobs ~runs p] performs [runs]
    independent annealing runs — the paper's "5-10 runs overnight",
    except spread across [jobs] OCaml domains so a modern multicore
    machine finishes them in one coffee — and returns the lowest-cost
    result plus every run's result, in run order.

    Restart [k] draws from the [k]-th {!Anneal.Rng.split} stream of the
    root generator, so for a fixed [seed] the winner is bit-identical for
    every [jobs] value, including the sequential [jobs:1] path.

    [cutoff] is an external kill switch polled through the annealer's
    abort hook (before the first move, then once per stage): returning
    [Some reason] aborts every live restart with that reason preserved in
    [cut_reason]. It is how the serve layer implements deadlines and job
    cancellation. A [cutoff] that never fires does not perturb the
    annealing trajectory, so the determinism guarantee above still holds.

    [obs] is shared by every restart: run [k] emits into
    [Obs.Trace.with_restart obs k], so one JSONL file captures all runs
    and can be demultiplexed — or replayed — per restart afterwards.
    When [jobs > 1] the restarts call [obs]'s sinks from several domains
    at once, so every sink must be domain-safe (every built-in
    {!Obs.Sink} is: each serializes [emit] through its own mutex). Each
    restart's events arrive in emission order; how the streams of
    concurrent restarts interleave is up to the scheduler. Emission never
    touches the RNG, so tracing never changes a result.

    Each worker domain allocates one {!Eval.Incr} arena and reuses it
    (via {!Eval.Incr.reset}) for every restart it claims, and sizes its
    own minor heap so that minor collections — stop-the-world barriers
    across all domains in OCaml 5 — stay rare. [perf], when given,
    receives the per-domain wall/GC/claim accounting after the parallel
    section finishes.

    [warm_starts] seeds the first [Array.length warm_starts] restarts
    (which must not exceed [runs]) from prior winners: restart [k] anneals
    from [warm_starts.(k)], the remaining restarts stay cold for
    exploration, and each result records its seed's label in
    [result.warm]. The mapping is positional — like the RNG streams it is
    independent of scheduling, so determinism (same seeds array, same
    winner for any [jobs]) is preserved. An empty array is bit-identical
    to the pre-warm-start behavior. *)
val best_of :
  ?seed:int ->
  ?moves:int ->
  ?jobs:int ->
  ?incremental:bool ->
  ?probe_batch:int ->
  ?cutoff:(unit -> string option) ->
  ?warm_starts:warm_start array ->
  ?obs:Obs.Trace.t ->
  ?perf:(parallel_report -> unit) ->
  runs:int ->
  Problem.t ->
  result * result list

(** The [cut_reason] recorded when {!run_job}'s deadline fires:
    ["deadline"]. *)
val deadline_reason : string

(** [run_job ?seed ?moves ?runs ?jobs ?deadline_s ?poll ?obs p]
    is the job-facing wrapper the synthesis service runs per queued job:
    {!best_of} with a wall-clock budget and a cancellation poll composed
    into an external [cutoff]. The deadline clock starts at the call (queue
    wait is the caller's business); when it expires, live restarts abort
    with [cut_reason = Some deadline_reason]. [poll] is checked first, so
    an explicit cancellation reason ("cancelled", "shutdown") wins over the
    timer. With neither [deadline_s] nor [poll], this is exactly
    [best_of] — bit-for-bit, including the trajectory. *)
val run_job :
  ?seed:int ->
  ?moves:int ->
  ?runs:int ->
  ?jobs:int ->
  ?incremental:bool ->
  ?probe_batch:int ->
  ?deadline_s:float ->
  ?poll:(unit -> string option) ->
  ?warm_starts:warm_start array ->
  ?obs:Obs.Trace.t ->
  ?perf:(parallel_report -> unit) ->
  Problem.t ->
  result * result list

(** [replay_cost p] re-evaluates a recorded design point under recorded
    adaptive weights with [p]'s compiled cost function, applying the same
    non-finite clamp as {!synthesize}. Raises [Invalid_argument] when the
    recorded state's arity does not match [p]. *)
val replay_cost : Problem.t -> Obs.Replay.cost_fn

(** [replay ?tol p events] runs {!Obs.Replay.check} against [p]'s compiled
    cost function: every accepted state in the trace must re-evaluate to
    its recorded cost within [tol]. *)
val replay :
  ?tol:float ->
  Problem.t ->
  Obs.Event.t list ->
  (Obs.Replay.stats, Obs.Replay.mismatch list * Obs.Replay.stats) Stdlib.result
