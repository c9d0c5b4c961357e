(** The daemon's engine room: a job table, a bounded priority queue, and a
    pool of worker domains that compile (through the shared
    {!Core.Compile_cache}) and anneal each job via {!Core.Oblx.run_job}.

    Lifecycle of a job: [Queued] → [Running] → [Done] | [Failed] |
    [Cancelled]. A cancel on a queued job removes it from the queue; a
    cancel on a running job trips the annealer's abort hook, and the
    partial result (best design so far, with [cut_reason]) is kept on the
    record. A full queue rejects new submissions with a reason — the
    backpressure contract — rather than queueing unboundedly.

    With a [state_dir], the pool also keeps a durable job log
    ([state_dir/jobs.log], append-only JSONL): one record on submit (the
    job's inputs, through {!Proto.submit_to_json}), one on finish (its
    terminal state, {!Proto.outcome_to_json}, and a traced job's stage
    events through {!Obs.Event.to_json}), each carrying a format version.
    {!create} replays it, so a restarted daemon still answers
    [status]/[result] for every pre-restart job id with the same record;
    jobs the old daemon left [Queued]/[Running] cannot be resumed and are
    replayed as [Failed] with error ["daemon restarted"]. A line replay
    cannot parse or decode is counted (the [journal.rejected] stat) and
    never applied: a job whose finish line is rejected replays as
    interrupted. With [log_rotate_bytes],
    a journal grown past the threshold and past twice its size after the
    previous compaction is compacted in place — one self-contained
    terminal record per finished job, original submit lines for live
    ones, atomically renamed over the old log — without losing replay
    fidelity.

    A plain job runs all [sb_runs] restarts on one worker, in restart
    order, through {!Core.Oblx.run_job}: its winner is the one
    {!Core.Oblx.best_of} picks for the same seed.

    A submit whose [sb_sweep] is non-empty is a sweep job: one (jobs = 1)
    synthesis per variant, run sequentially on a single worker, each
    variant compiled through the shared cache under its (canon, corner)
    key — so a 15-variant sweep over 5 corners costs exactly 5 compiles.
    Spec-target overrides are applied to the compiled problem without
    recompiling. The finished job's [result] record carries a ["sweep"]
    array of per-variant verdict rows (best cost, ok, cache hit/miss,
    predicted specs, per-variant error). The verdict table is a
    deterministic function of (source, variants, seed) — independent of
    the pool's worker count.

    All table/queue state is guarded by one mutex; synthesis itself runs
    outside it. JSON views are rendered under the lock so a reader never
    sees a half-updated record. *)

type config = {
  workers : int;  (** worker domains; 0 accepts jobs but runs none (tests) *)
  queue_capacity : int;
  cache_capacity : int;  (** compile-cache entries *)
  state_dir : string option;
      (** when set, every finished job's record is written there as
          [job-<id>.json], and [jobs.log] journals every submit/finish —
          the ops trail surviving the daemon, replayed by {!create} *)
  default_moves : int option;
      (** moves budget for submissions that leave ["moves"] null *)
  log_rotate_bytes : int option;
      (** compact [jobs.log] once it exceeds this many bytes and twice
          its size after the previous compaction; [None] = never rotate *)
  warm : bool;
      (** seed plain submits from the winner corpus. Recording into the
          corpus is always on (passive, like the journal); this gates
          {e consumption} — with it off (the default) every run is
          bit-identical to a corpus-free daemon, which is what keeps the
          existing determinism gates green. *)
  warm_fraction : float;
      (** at most this fraction of a job's restarts get warm seeds
          (floored, so [runs = 1] always stays fully cold); the rest run
          cold so the search never collapses onto its own history *)
  corpus_capacity : int;  (** total winner-corpus entries kept *)
}

val default_config : config

type t

(** [create config] replays [state_dir/jobs.log] (when configured),
    spawns the workers, and returns the running pool. Fresh job ids
    continue past the highest replayed id, so pre-restart ids stay
    unambiguous. *)
val create : config -> t

(** [submit t s] enqueues and returns the fresh job id, or the
    backpressure/validation reason. A submit carrying the retired
    [sb_shard] is refused with an error naming [shard_lo]. *)
val submit : t -> Proto.submit -> (int, string) result

val cancel : t -> int -> (unit, string) result

(** [status_json t id] — the lightweight view: state, queue position,
    wait/run seconds, cache outcome. *)
val status_json : t -> int -> (Obs.Json.t, string) result

(** [result_json t id] — the full record: everything in the status view
    plus, for finished jobs, best cost, move/eval counts, [cut_reason],
    predicted specs, the sized design, and (when the submission asked for
    a trace) the job's ring of stage events, at most 256 of them, with
    [events_dropped] counting the older ones it let go. *)
val result_json : t -> int -> (Obs.Json.t, string) result

(** [stats_json t] — jobs by state, queue depth, [restored_jobs] (jobs
    replayed from the log at startup), compile-cache hit rate, journal
    size/rotations and the lines its replay rejected, the winner corpus
    (with its own rejected count), and per-worker moves/s from the shared
    streaming-summary sink. *)
val stats_json : t -> Obs.Json.t

(** {2 Warm starts — the winner corpus and the resynthesize fast path}

    Every finished (non-sweep) job records its winning variable vector,
    final cost, and end-of-run Hustin distribution in a bounded {!Corpus}
    keyed by the problem's shape hash, journaled in
    [state_dir/corpus.log]. With
    [config.warm] on, a plain submit snapshots the best corpus entries for
    its shape into [sb_warm] — at most [warm_fraction] of the restarts —
    before journaling, so the snapshot is part of the job's recorded
    inputs and a replay is bit-identical whatever the live corpus holds. *)

(** [corpus_lookup t ~shape] — this daemon's corpus entries for a shape
    hash, best first (served to the [corpus_lookup] verb). *)
val corpus_lookup : t -> shape:string -> Corpus.entry list

(** [resynthesize t r] — rerun finished job [r.rz_id] with [r.rz_specs]
    re-targeted: same source (a compile-cache hit), exactly one restart
    warm-started from the parent's recorded winner (with its Hustin
    distribution as priors), and half the parent's restarts/budget unless
    [r] says otherwise. Returns the new job's id. Works with
    [config.warm] off — the explicit parent is the seed, not the corpus. *)
val resynthesize : t -> Proto.resynth -> (int, string) result

(** [shutdown t] — reject new work, cancel queued jobs (reason
    ["shutdown"]), trip running jobs' abort hooks, and join the workers.
    Idempotent. *)
val shutdown : t -> unit
