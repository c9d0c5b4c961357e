module Json = Obs.Json

type config = {
  workers : int;
  queue_capacity : int;
  cache_capacity : int;
  state_dir : string option;
  default_moves : int option;
  log_rotate_bytes : int option;  (** compact jobs.log beyond this size *)
  warm : bool;
      (** seed plain submits from the winner corpus. Recording into the
          corpus is always on (passive, like the journal); this gates
          {e consumption}, so with it off every existing run is
          bit-identical to a corpus-free daemon. *)
  warm_fraction : float;  (** fraction of a job's restarts to seed warm *)
}

let default_config =
  {
    workers = Core.Oblx.default_jobs ();
    queue_capacity = 64;
    cache_capacity = 64;
    state_dir = None;
    default_moves = None;
    log_rotate_bytes = None;
    warm = false;
    warm_fraction = 0.5;
  }

type job_state = Queued | Running | Done | Failed | Cancelled

(* A traced job's stage events: the live ring while the job runs, or what
   its journaled finish line carried, after a restart. *)
type events =
  | Live of Obs.Sink.Ring.ring
  | Replayed of Obs.Event.t list * int  (** the events and [events_dropped] *)

(* The ring holds a job's recent history, not a move torrent. *)
let ring_capacity = 256

let state_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Failed -> "failed"
  | Cancelled -> "cancelled"

type job = {
  id : int;
  spec : Proto.submit;
  submitted_at : float;
  mutable state : job_state;
  mutable started_at : float option;
  mutable finished_at : float option;
  mutable worker : int option;
  mutable cache : Core.Compile_cache.outcome option;
  mutable error : string option;  (** [Failed]: the compile error *)
  mutable outcome : Proto.outcome option;
  cancel : string option Atomic.t;
      (** cancellation verdict, polled by the annealer's abort hook *)
  mutable events : events option;  (** per-job stage events, on request *)
}

type t = {
  cfg : config;
  mutex : Mutex.t;
  nonempty : Condition.t;
  jobs : (int, job) Hashtbl.t;
  mutable queue : job list;  (** sorted: priority desc, then id asc *)
  mutable next_id : int;
  mutable stopping : bool;
  mutable rejected : int;
  restored : int;  (** jobs replayed from the log at startup *)
  journal_rejected : int;  (** log lines replay could not parse or decode *)
  mutable log : out_channel option;  (** [state_dir/jobs.log], append mode *)
  log_mutex : Mutex.t;  (** appends are whole lines, never interleaved *)
  mutable log_bytes : int;  (** bytes in jobs.log, for the rotation check *)
  mutable compacted_bytes : int;  (** jobs.log's size right after the last rotation *)
  mutable rotations : int;
  cache : Core.Compile_cache.t;
  mutable finished_moves : int;  (** [telemetry.moves]: see [count_runs] *)
  mutable finished_accepted : int;
  finished_evals : int array;  (** the [evals] block, indexed like [eval_counters] *)
  worker_moves : int array;
  worker_busy_s : float array;
  worker_jobs : int array;
  mutable domains : unit Domain.t list;
  started_wall : float;
  corpus : Corpus.t;  (** the done plain jobs' winners, guarded by [mutex] *)
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Queue discipline                                                    *)
(* ------------------------------------------------------------------ *)

let enqueue queue job =
  let precedes (a : job) (b : job) =
    a.spec.Proto.sb_priority > b.spec.Proto.sb_priority
    || (a.spec.Proto.sb_priority = b.spec.Proto.sb_priority && a.id < b.id)
  in
  let rec insert = function
    | [] -> [ job ]
    | j :: rest when precedes job j -> job :: j :: rest
    | j :: rest -> j :: insert rest
  in
  insert queue

(* ------------------------------------------------------------------ *)
(* Finishing and persistence                                           *)
(* ------------------------------------------------------------------ *)

let opt_num = function Some v -> Json.Num v | None -> Json.Null
let num_i i = Json.Num (float_of_int i)
let opt_str = function Some s -> Json.Str s | None -> Json.Null

(* A traced job's [events] and [events_dropped] members, rendered alike on
   its result record and its journaled finish line, so a replayed record
   reads as the live one did. *)
let events_fields (j : job) =
  let fields evs dropped =
    [
      ("events", Json.Arr (List.map Obs.Event.to_json evs)); ("events_dropped", num_i dropped);
    ]
  in
  match j.events with
  | None -> []
  | Some (Live ring) -> fields (Obs.Sink.Ring.contents ring) (Obs.Sink.Ring.dropped ring)
  | Some (Replayed (evs, dropped)) -> fields evs dropped

(* Caller holds the lock. *)
let job_json ~full t (j : job) =
  let wait_s =
    match (j.started_at, j.state, j.finished_at) with
    | Some st, _, _ -> st -. j.submitted_at
    | None, Queued, _ -> now () -. j.submitted_at
    (* Never ran (cancelled while queued, or lost to a restart): the whole
       life of the job was waiting. *)
    | None, _, Some fin -> fin -. j.submitted_at
    | None, _, None -> 0.0
  in
  let run_s =
    match (j.started_at, j.finished_at) with
    | Some st, Some fin -> Some (fin -. st)
    | Some st, None -> Some (now () -. st)
    | None, _ -> None
  in
  let queue_pos =
    match j.state with
    | Queued ->
        let rec pos k = function
          | [] -> None
          | (q : job) :: rest -> if q.id = j.id then Some k else pos (k + 1) rest
        in
        pos 0 t.queue
    | Running | Done | Failed | Cancelled -> None
  in
  (* The outcome's encoding leads with its cut reason, which the status
     view shows too; the rest is the result view's detail block. *)
  let cut_reason, detail =
    match Option.map Proto.outcome_to_json j.outcome with
    | Some (Json.Obj (("cut_reason", c) :: detail)) -> (c, detail)
    | Some _ | None -> (Json.Null, [])
  in
  let base =
    [
      ("id", num_i j.id);
      ("name", Json.Str j.spec.Proto.sb_name);
      ("state", Json.Str (state_name j.state));
      ("seed", num_i j.spec.Proto.sb_seed);
      ("runs", num_i j.spec.Proto.sb_runs);
      ("priority", num_i j.spec.Proto.sb_priority);
      ("deadline_s", opt_num j.spec.Proto.sb_deadline_s);
      ("queue_position", match queue_pos with Some p -> num_i p | None -> Json.Null);
      ("wait_s", Json.Num wait_s);
      ("run_s", opt_num run_s);
      ("cache", Proto.cache_to_json j.cache);
      ("error", opt_str j.error);
      ("cut_reason", cut_reason);
    ]
  in
  Json.Obj (if full then base @ detail @ events_fields j else base)

(* Persist outside the lock: the record is already rendered. *)
let persist t (j : job) rendered =
  match t.cfg.state_dir with
  | None -> ()
  | Some dir -> begin
      match
        let oc = open_out (Filename.concat dir (Printf.sprintf "job-%d.json" j.id)) in
        output_string oc (Json.to_string rendered);
        output_char oc '\n';
        close_out oc
      with
      | () -> ()
      | exception Sys_error _ -> () (* the state dir is best-effort ops trail *)
    end

(* ------------------------------------------------------------------ *)
(* The durable job log                                                 *)
(* ------------------------------------------------------------------ *)

(* [state_dir/jobs.log] is an append-only JSONL journal: one "submit" line
   when a job enters the queue, one "finish" line when it leaves a worker
   (or is cancelled). A submit line carries the job's inputs through the
   submit codec; a finish line its terminal state, raw timestamps, cache
   outcome, error and outcome, the last through the outcome codec, and a
   traced job's events through the event codec. Every
   line carries the format version [journal_version]. [create] replays
   the log so a restarted daemon still answers status/result for every
   pre-restart job id. *)

let journal_version = 1

let log_append t line =
  Mutex.lock t.log_mutex;
  (match t.log with
  | None -> ()
  | Some oc -> (
      try
        let line = Json.to_string line in
        output_string oc line;
        output_char oc '\n';
        flush oc;
        t.log_bytes <- t.log_bytes + String.length line + 1
      with Sys_error _ -> () (* best-effort, like the per-job files *)));
  Mutex.unlock t.log_mutex

let log_line kind (j : job) fields =
  Json.Obj
    (("v", num_i journal_version) :: ("log", Json.Str kind) :: ("id", num_i j.id) :: fields)

let job_inputs (j : job) =
  [ ("submitted_at", Json.Num j.submitted_at); ("submit", Proto.submit_to_json j.spec) ]

(* Caller holds the lock. *)
let submit_record j = log_line "submit" j (job_inputs j)

(* Caller holds the lock. A compacted log has no submit line for a
   finished job, so there its finish record also carries the job's inputs
   ([~inputs:true]). *)
let finish_record ?(inputs = false) (j : job) =
  log_line "finish" j
    ([
       ("state", Json.Str (state_name j.state));
       ("started_at", opt_num j.started_at);
       ("finished_at", opt_num j.finished_at);
       ("cache", Proto.cache_to_json j.cache);
       ("error", opt_str j.error);
       ("outcome", match j.outcome with Some o -> Proto.outcome_to_json o | None -> Json.Null);
     ]
    @ events_fields j
    @ if inputs then job_inputs j else [])

(* --- Rotation: compact the journal while the daemon runs -------------- *)

(* When jobs.log grows past [log_rotate_bytes] and past twice its size
   right after the previous compaction, rewrite it as one
   self-contained terminal record per finished job (a finish record
   carrying the inputs a submit line used to provide) plus the submit line
   for every job still queued or running, then atomically rename over the
   old log. Replay fidelity is exact: the records go through the same
   codecs as the lines they replace.
   A kill -9 at any point leaves either the old complete log (plus a
   harmless jobs.log.tmp) or the new complete one — never a torn journal.

   Lock order: [t.mutex] (to render every job consistently) then
   [t.log_mutex] (to swap the channel), the order [finish] takes them in
   to append its line; [log_append] takes only [log_mutex], and nothing
   takes [t.mutex] while holding [log_mutex], so this cannot deadlock.
   A finish cannot interleave with the rotation; a submit admitted just
   before it appends its submit line after the swap, a duplicate that
   replay rejects and counts. *)
let rotate t =
  match t.cfg.state_dir with
  | None -> ()
  | Some dir ->
      locked t (fun () ->
          Mutex.lock t.log_mutex;
          Fun.protect
            ~finally:(fun () -> Mutex.unlock t.log_mutex)
            (fun () ->
              match t.log with
              | None -> ()
              | Some oc -> begin
                  let path = Filename.concat dir "jobs.log" in
                  let tmp = path ^ ".tmp" in
                  match open_out tmp with
                  | exception Sys_error _ -> ()
                  | tmp_oc -> (
                      try
                        let ids =
                          Hashtbl.fold (fun id _ acc -> id :: acc) t.jobs []
                          |> List.sort compare
                        in
                        List.iter
                          (fun id ->
                            let j = Hashtbl.find t.jobs id in
                            let line =
                              match j.state with
                              | Done | Failed | Cancelled -> finish_record ~inputs:true j
                              | Queued | Running -> submit_record j
                            in
                            output_string tmp_oc (Json.to_string line);
                            output_char tmp_oc '\n')
                          ids;
                        close_out tmp_oc;
                        Sys.rename tmp path;
                        (try close_out oc with Sys_error _ -> ());
                        t.log <-
                          (try Some (open_out_gen [ Open_append; Open_creat ] 0o644 path)
                           with Sys_error _ -> None);
                        t.log_bytes <-
                          (try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0);
                        t.compacted_bytes <- t.log_bytes;
                        t.rotations <- t.rotations + 1
                      with Sys_error _ -> (
                        (* Rotation is best-effort: keep appending to the
                           old channel, try again past the next append. *)
                        try close_out tmp_oc with Sys_error _ -> ()))
                end))

(* Compaction keeps a record per job ever run, so the compacted log only
   grows: rotating whenever it exceeds the limit would rewrite the whole
   journal on every later append. Waiting for it to double since the last
   compaction bounds the rewriting to a constant factor of the appends, at
   the price of a log up to twice its compacted size. *)
let maybe_rotate t =
  let due =
    match t.cfg.log_rotate_bytes with
    | None -> false
    | Some limit ->
        Mutex.lock t.log_mutex;
        let b = t.log <> None && t.log_bytes > limit && t.log_bytes > 2 * t.compacted_bytes in
        Mutex.unlock t.log_mutex;
        b
  in
  if due then rotate t

(* The [evals] block of [stats]: each member sums one incremental-evaluator
   counter over the restarts [count_runs] has seen. *)
let eval_counters : (string * (Core.Eval.Incr.stats -> int)) list =
  Core.Eval.Incr.
    [
      ("full", fun s -> s.full_evals);
      ("incremental", fun s -> s.incr_evals);
      ("op_hits", fun s -> s.op_hits);
      ("op_misses", fun s -> s.op_misses);
      ("rom_builds", fun s -> s.rom_builds);
      ("rom_reuses", fun s -> s.rom_reuses);
      ("spec_evals", fun s -> s.spec_evals);
      ("spec_reuses", fun s -> s.spec_reuses);
      ("resyncs", fun s -> s.resyncs);
      ("resync_mismatches", fun s -> s.resync_mismatches);
      ("probes", fun s -> s.probes);
      ("probe_rom_builds", fun s -> s.probe_rom_builds);
    ]

(* Caller holds the lock. Adds a finishing job's restarts to the
   [telemetry] and [evals] sums of [stats]; each restart's evaluator
   counters start from zero, so the sums cover every restart of every job
   finished since boot. *)
let count_runs t runs =
  List.iter
    (fun (r : Core.Oblx.result) ->
      t.finished_moves <- t.finished_moves + r.Core.Oblx.moves;
      t.finished_accepted <- t.finished_accepted + r.Core.Oblx.accepted;
      Option.iter
        (fun es ->
          List.iteri
            (fun i (_, counter) -> t.finished_evals.(i) <- t.finished_evals.(i) + counter es)
            eval_counters)
        r.Core.Oblx.eval_stats)
    runs

(* A done plain job's corpus entry: its winner under the hashes its
   outcome records. A sweep records no winner, and an outcome journaled
   before it carried [canon] has no canon. *)
let corpus_entry (j : job) =
  match (j.state, j.outcome) with
  | ( Done,
      Some
        {
          Proto.jo_winner = Some (values, grid, probs);
          jo_canon = Some canon;
          jo_shape = Some shape;
          jo_best_cost;
          _;
        } ) ->
      Some
        {
          Corpus.en_shape = shape;
          en_canon = canon;
          en_job = j.id;
          en_name = j.spec.Proto.sb_name;
          en_cost = jo_best_cost;
          en_values = values;
          en_grid = grid;
          en_probs = probs;
        }
  | _ -> None

(* [runs] are the job's annealing results, counted, and a done job's
   winner entered in the corpus, under the same lock that marks the job
   finished; its finish line is appended under that lock too. So a
   client that sees it done sees it counted, finds its corpus entry, and
   can rely on a restarted daemon replaying it done. *)
let finish t (j : job) ~worker ~state ?error ?outcome ?(runs = []) () =
  let rendered =
    locked t (fun () ->
        count_runs t runs;
        j.state <- state;
        j.finished_at <- Some (now ());
        (match error with Some _ -> j.error <- error | None -> ());
        (match outcome with Some _ -> j.outcome <- outcome | None -> ());
        (match (worker, j.started_at, j.finished_at) with
        | Some w, Some st, Some fin ->
            t.worker_busy_s.(w) <- t.worker_busy_s.(w) +. (fin -. st);
            t.worker_jobs.(w) <- t.worker_jobs.(w) + 1;
            (match outcome with
            | Some o -> t.worker_moves.(w) <- t.worker_moves.(w) + o.Proto.jo_moves
            | None -> ())
        | _ -> ());
        Option.iter (Corpus.add t.corpus) (corpus_entry j);
        log_append t (finish_record j);
        job_json ~full:true t j)
  in
  persist t j rendered;
  maybe_rotate t

(* --- Replay: jobs.log lines back into job records ------------------- *)

let fresh_job ~id ~spec ~submitted_at =
  {
    id;
    spec;
    submitted_at;
    state = Queued;
    started_at = None;
    finished_at = None;
    worker = None;
    cache = None;
    error = None;
    outcome = None;
    cancel = Atomic.make None;
    events = None;
  }

let terminal_state = function
  | Json.Str "done" -> Done
  | Json.Str "failed" -> Failed
  | Json.Str "cancelled" -> Cancelled
  | _ -> raise (Json.Decode_error "expected \"done\", \"failed\" or \"cancelled\"")

(* Apply one journal line to [table] (and [order], ids in first-seen
   order). A line that does not parse or decode raises [Decode_error]
   before anything is applied. *)
let replay_line table order line =
  let r = Proto.get_ok (Json.of_string line) in
  let version = Proto.field "v" Json.to_int r in
  if version <> journal_version then
    raise (Json.Decode_error (Printf.sprintf "format version %d, expected %d" version journal_version));
  let id = Proto.field "id" Json.to_int r in
  let add () =
    let j =
      fresh_job ~id
        ~spec:(Proto.field "submit" (fun s -> Proto.get_ok (Proto.submit_of_json s)) r)
        ~submitted_at:(Proto.field "submitted_at" Json.to_float r)
    in
    Hashtbl.replace table id j;
    order := id :: !order;
    j
  in
  match Proto.field "log" Json.to_str r with
  | "submit" ->
      if Hashtbl.mem table id then
        raise (Json.Decode_error (Printf.sprintf "job %d submitted twice" id));
      ignore (add ())
  | "finish" ->
      let state = Proto.field "state" terminal_state r in
      let outcome = Proto.nullable "outcome" (fun o -> Proto.get_ok (Proto.outcome_of_json o)) r in
      if state = Done && Option.is_none outcome then
        raise (Json.Decode_error "a done job needs an outcome");
      let started_at = Proto.nullable "started_at" Json.to_float r
      and finished_at = Proto.nullable "finished_at" Json.to_float r
      and cache = Proto.field "cache" Proto.cache_of_json r
      and error = Proto.nullable "error" Json.to_str r
      and events =
        match Json.mem_opt "events" r with
        | None -> None
        | Some _ ->
            let event e = Proto.get_ok (Obs.Event.of_json e) in
            let evs = Proto.field "events" (fun v -> List.map event (Json.to_list v)) r in
            if List.length evs > ring_capacity then
              raise
                (Json.Decode_error
                   (Printf.sprintf "%d events, more than a job's ring holds (%d)"
                      (List.length evs) ring_capacity));
            Some (Replayed (evs, Proto.field "events_dropped" Json.to_int r))
      in
      (* A finish with no submit before it is a compacted log's
         self-contained record. *)
      let j = match Hashtbl.find_opt table id with Some j -> j | None -> add () in
      j.state <- state;
      j.started_at <- started_at;
      j.finished_at <- finished_at;
      j.cache <- cache;
      j.error <- error;
      j.outcome <- outcome;
      j.events <- events
  | kind -> raise (Json.Decode_error (Printf.sprintf "unknown record %S" kind))

(* Jobs in first-seen order, and the number of lines replay rejected — a
   torn final line (the daemon died mid-append) among them, never fatal.
   A job whose finish line was rejected keeps the state its submit line
   gave it; jobs still queued/running were interrupted by the restart. *)
let replay_log path =
  match open_in path with
  | exception Sys_error _ -> ([], 0)
  | ic ->
      let table : (int, job) Hashtbl.t = Hashtbl.create 64 in
      let order = ref [] and rejected = ref 0 in
      (try
         while true do
           match replay_line table order (input_line ic) with
           | () -> ()
           | exception Json.Decode_error _ -> incr rejected
         done
       with End_of_file -> ());
      close_in ic;
      (List.rev_map (Hashtbl.find table) !order, !rejected)

(* ------------------------------------------------------------------ *)
(* Workers                                                             *)
(* ------------------------------------------------------------------ *)

(* The job-level cut reason: the winner's, or the first restart that
   reported one (a deadline can fire during restart k > 0 while the
   winner ran to completion). *)
let cut_reason_of best all =
  match best.Core.Oblx.cut_reason with
  | Some r -> Some r
  | None -> List.find_map (fun (r : Core.Oblx.result) -> r.Core.Oblx.cut_reason) all

(* Position of the winner in the executed range — [best] is one of [all]
   by construction, compared physically because results carry floats. *)
let winner_index best all =
  let rec go i = function
    | [] -> 0
    | r :: rest -> if r == best then i else go (i + 1) rest
  in
  go 0 all

let sum_moves all =
  List.fold_left (fun a (r : Core.Oblx.result) -> a + r.Core.Oblx.moves) 0 all

let sum_evals all =
  List.fold_left (fun a (r : Core.Oblx.result) -> a + r.Core.Oblx.evals) 0 all

(* The one builder of a plain job's outcome: every restart [all] over
   problem [p], the winner [best] among them, and the source's (canon,
   shape) hashes when it parsed. *)
let outcome_of_run p ~hashes (best : Core.Oblx.result) all =
  {
    Proto.jo_best_cost = best.Core.Oblx.best_cost;
    jo_moves = sum_moves all;
    jo_evals = sum_evals all;
    jo_cut_reason = cut_reason_of best all;
    jo_predicted = best.Core.Oblx.predicted;
    jo_sizes = Core.Report.sizes p best.Core.Oblx.final;
    jo_winner_restart = Some (winner_index best all);
    jo_winner_score = Some (Core.Oblx.score p best);
    jo_sweep = [];
    jo_shape = Option.map snd hashes;
    jo_canon = Option.map fst hashes;
    jo_warm = best.Core.Oblx.warm;
    jo_winner =
      Some
        ( Array.copy best.Core.Oblx.final.Core.State.values,
          Array.copy best.Core.Oblx.final.Core.State.grid_index,
          best.Core.Oblx.probs );
  }

(* "ok" for one sweep row: every specification at or inside its good
   target. The direction comes from the good/bad ordering — good <= bad
   means smaller is better — the same normalization the cost uses. *)
let specs_met (p : Core.Problem.t) predicted =
  List.for_all
    (fun (s : Core.Problem.spec) ->
      match List.assoc_opt s.Core.Problem.spec_name predicted with
      | Some (Some v) ->
          if s.Core.Problem.good <= s.Core.Problem.bad then v <= s.Core.Problem.good
          else v >= s.Core.Problem.good
      | Some None | None -> false)
    p.Core.Problem.specs

(* Re-target good/bad on the compiled problem without recompiling: the
   spec list keeps its order, so the depgraph's per-spec rows stay
   aligned. An override naming no spec is a caller bug, reported per
   variant rather than silently ignored. *)
let override_specs (p : Core.Problem.t) overrides =
  let missing =
    List.filter_map
      (fun (n, _, _) ->
        if Option.is_none (Core.Problem.find_spec p n) then Some n else None)
      overrides
  in
  match (missing, overrides) with
  | _ :: _, _ ->
      Error (Printf.sprintf "unknown spec(s): %s" (String.concat ", " missing))
  | [], [] -> Ok p
  | [], _ ->
      Ok
        {
          p with
          Core.Problem.specs =
            List.map
              (fun (s : Core.Problem.spec) ->
                match
                  List.find_opt (fun (n, _, _) -> n = s.Core.Problem.spec_name) overrides
                with
                | Some (_, good, bad) -> { s with Core.Problem.good; bad }
                | None -> s)
              p.Core.Problem.specs;
        }

(* A traced job's stage events go straight into its ring, all of them
   before the job finishes, so its finish line and record hold every
   event. An untraced job emits nothing. *)
let job_obs (j : job) =
  match j.events with
  | Some (Live ring) -> Obs.Trace.make ~level:Obs.Event.Stage [ Obs.Sink.Ring.sink ring ]
  | Some (Replayed _) | None -> Obs.Trace.none

let job_moves t (j : job) =
  match j.spec.Proto.sb_moves with Some m -> Some m | None -> t.cfg.default_moves

(* The deadline is a latency bound from submission, so the queue wait
   already spent part of it. Recomputed at each run's start (a sweep's
   later variants start later); an exhausted budget still runs, aborting
   at move 0 via the annealer's pre-loop poll. *)
let deadline_left (j : job) =
  Option.map
    (fun budget -> Float.max 0.0 (budget -. (now () -. j.submitted_at)))
    j.spec.Proto.sb_deadline_s

(* A sweep job: one (jobs = 1) synthesis per variant, run sequentially on
   this worker, every compile routed through the shared cache under its
   (canon, corner) key — the first variant at a given key compiles, the
   rest hit. Sequential jobs = 1 execution makes the verdict table a
   deterministic function of (source, variants, seed), independent of the
   pool's worker count. *)
let run_sweep t (j : job) ~worker =
  let obs = job_obs j in
  let moves = job_moves t j in
  let rows = ref [] in
  (* Every variant's restarts, counted into [stats] when the job finishes. *)
  let runs = ref [] in
  (* The cross-variant winner, for the job-level summary fields. *)
  let best : (float * Core.Problem.t * Core.Oblx.result) option ref = ref None in
  List.iter
    (fun (v : Proto.variant) ->
      if Atomic.get j.cancel = None then begin
        let fail ?cache e =
          {
            Proto.sv_name = v.Proto.vr_name;
            sv_corner = v.Proto.vr_corner;
            sv_cache = cache;
            sv_best_cost = None;
            sv_ok = None;
            sv_error = Some e;
            sv_predicted = [];
            sv_moves = 0;
            sv_evals = 0;
            sv_cut_reason = None;
          }
        in
        let corner =
          match v.Proto.vr_corner with
          | None -> Ok None
          | Some c -> begin
              match Devices.Registry.find_corner c with
              | Some corner -> Ok (Some corner)
              | None -> Error (Printf.sprintf "unknown corner %S" c)
            end
        in
        let row =
          match corner with
          | Error e -> fail e
          | Ok corner -> begin
              match
                Core.Compile_cache.compile t.cache ?corner ~source:j.spec.Proto.sb_source ()
              with
              | Error (e, cache) -> fail ~cache e
              | Ok (p, cache) -> begin
                  match override_specs p v.Proto.vr_specs with
                  | Error e -> fail ~cache e
                  | Ok p' -> begin
                      let deadline_s = deadline_left j in
                      match
                        Core.Oblx.run_job ~seed:j.spec.Proto.sb_seed ?moves
                          ~runs:j.spec.Proto.sb_runs ~jobs:1 ?deadline_s
                          ~poll:(fun () -> Atomic.get j.cancel)
                          ~obs p'
                      with
                      | b, all ->
                          runs := List.rev_append all !runs;
                          (match !best with
                          | Some (c, _, _) when c <= b.Core.Oblx.best_cost -> ()
                          | Some _ | None -> best := Some (b.Core.Oblx.best_cost, p', b));
                          {
                            Proto.sv_name = v.Proto.vr_name;
                            sv_corner = v.Proto.vr_corner;
                            sv_cache = Some cache;
                            sv_best_cost = Some b.Core.Oblx.best_cost;
                            sv_ok = Some (specs_met p' b.Core.Oblx.predicted);
                            sv_error = None;
                            sv_predicted = b.Core.Oblx.predicted;
                            sv_moves = sum_moves all;
                            sv_evals = sum_evals all;
                            sv_cut_reason = cut_reason_of b all;
                          }
                      | exception exn -> fail ~cache (Printexc.to_string exn)
                    end
                end
            end
        in
        rows := row :: !rows
      end)
    j.spec.Proto.sb_sweep;
  let rows = List.rev !rows and runs = !runs in
  (* The job-level cache field reports the first variant's outcome
     (informational); the per-row outcomes are authoritative. *)
  (match rows with
  | { Proto.sv_cache = Some c; _ } :: _ -> locked t (fun () -> j.cache <- Some c)
  | _ -> ());
  (* A sweep's record carries no winner or shape: its rows are the
     answer, summed into the job-level counters. *)
  let summary =
    {
      Proto.jo_best_cost = 0.0;
      jo_moves = List.fold_left (fun a r -> a + r.Proto.sv_moves) 0 rows;
      jo_evals = List.fold_left (fun a r -> a + r.Proto.sv_evals) 0 rows;
      jo_cut_reason = List.find_map (fun r -> r.Proto.sv_cut_reason) rows;
      jo_predicted = [];
      jo_sizes = [];
      jo_winner_restart = None;
      jo_winner_score = None;
      jo_sweep = rows;
      jo_shape = None;
      jo_canon = None;
      jo_warm = None;
      jo_winner = None;
    }
  in
  match !best with
  | None ->
      (* Every variant failed (or the job was cancelled before any
         completed): the rows still ride on the outcome so the caller
         sees per-variant reasons. *)
      let state = if Atomic.get j.cancel <> None then Cancelled else Failed in
      let error =
        match List.find_opt (fun r -> r.Proto.sv_error <> None) rows with
        | Some { Proto.sv_name; sv_error = Some e; _ } -> Printf.sprintf "%s: %s" sv_name e
        | _ -> "sweep: no variant completed"
      in
      finish t j ~worker:(Some worker) ~state ~error ~outcome:summary ()
  | Some (cost, pw, bw) ->
      let state = if Atomic.get j.cancel <> None then Cancelled else Done in
      finish t j ~worker:(Some worker) ~state ~runs
        ~outcome:
          {
            summary with
            jo_best_cost = cost;
            jo_predicted = bw.Core.Oblx.predicted;
            jo_sizes = Core.Report.sizes pw bw.Core.Oblx.final;
            jo_winner_score = Some (Core.Oblx.score pw bw);
          }
        ()

(* Both hashes of a problem source in one parse: the full canon key and
   the spec-value-free shape key the corpus buckets by. *)
let hashes_of_source src =
  match Netlist.Parser.parse_problem src with
  | ast -> Some (Netlist.Canon.problem_hash ast, Netlist.Canon.problem_shape_hash ast)
  | exception Netlist.Parser.Error _ -> None

let run_job t (j : job) ~worker =
  if j.spec.Proto.sb_sweep <> [] then run_sweep t j ~worker
  else
    match Core.Compile_cache.compile t.cache ~source:j.spec.Proto.sb_source () with
    | Error (e, cache_outcome) ->
        (* The cache deliberately remembers failures; report the real
           hit/miss so repeated broken submissions don't read as misses. *)
        locked t (fun () -> j.cache <- Some cache_outcome);
        finish t j ~worker:(Some worker) ~state:Failed ~error:e ()
    | Ok (compiled, cache_outcome) -> begin
        locked t (fun () -> j.cache <- Some cache_outcome);
        (* Spec re-targets (the resynthesize fast path) bind after the
           compile: the cache hit above is the point — the overridden
           problem shares the parent's compiled closures. *)
        match override_specs compiled j.spec.Proto.sb_spec_overrides with
        | Error e -> finish t j ~worker:(Some worker) ~state:Failed ~error:e ()
        | Ok p ->
            (* The journaled warm snapshot, attached positionally: restart
               k < |sb_warm| seeds from entry k (the rest stay cold). *)
            let warm_starts =
              Array.of_list (List.map Corpus.warm_start_of_entry j.spec.Proto.sb_warm)
            in
            let best, all =
              Core.Oblx.run_job ~seed:j.spec.Proto.sb_seed ?moves:(job_moves t j)
                ~runs:j.spec.Proto.sb_runs ~jobs:1 ?deadline_s:(deadline_left j) ~warm_starts
                ~poll:(fun () -> Atomic.get j.cancel)
                ~obs:(job_obs j) p
            in
            let outcome =
              outcome_of_run p ~hashes:(hashes_of_source j.spec.Proto.sb_source) best all
            in
            let state = if Atomic.get j.cancel <> None then Cancelled else Done in
            finish t j ~worker:(Some worker) ~state ~outcome ~runs:all ()
      end

let rec worker_loop t ~worker =
  let job =
    locked t (fun () ->
        while t.queue = [] && not t.stopping do
          Condition.wait t.nonempty t.mutex
        done;
        match t.queue with
        | [] -> None (* stopping *)
        | j :: rest ->
            t.queue <- rest;
            j.state <- Running;
            j.started_at <- Some (now ());
            j.worker <- Some worker;
            Some j)
  in
  match job with
  | None -> ()
  | Some j ->
      (match run_job t j ~worker with
      | () -> ()
      | exception exn ->
          (* A worker must outlive any single job: record the wreckage and
             move on. *)
          finish t j ~worker:(Some worker) ~state:Failed
            ~error:(Printf.sprintf "internal error: %s" (Printexc.to_string exn))
            ());
      worker_loop t ~worker

(* ------------------------------------------------------------------ *)
(* Public API                                                          *)
(* ------------------------------------------------------------------ *)

let create cfg =
  if cfg.workers < 0 then invalid_arg "Pool.create: workers must be >= 0";
  if cfg.queue_capacity < 1 then invalid_arg "Pool.create: queue_capacity must be >= 1";
  let (restored_jobs, journal_rejected), log, log_bytes =
    match cfg.state_dir with
    | None -> (([], 0), None, 0)
    | Some dir ->
        (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        let path = Filename.concat dir "jobs.log" in
        let restored = replay_log path in
        let oc =
          try Some (open_out_gen [ Open_append; Open_creat ] 0o644 path)
          with Sys_error _ -> None
        in
        let bytes = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0 in
        (restored, oc, bytes)
  in
  let t =
    {
      cfg;
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      jobs = Hashtbl.create 64;
      queue = [];
      next_id = List.fold_left (fun acc (j : job) -> Int.max acc (j.id + 1)) 0 restored_jobs;
      stopping = false;
      rejected = 0;
      restored = List.length restored_jobs;
      journal_rejected;
      log;
      log_mutex = Mutex.create ();
      log_bytes;
      compacted_bytes = 0;
      rotations = 0;
      cache = Core.Compile_cache.create ~capacity:cfg.cache_capacity ();
      finished_moves = 0;
      finished_accepted = 0;
      finished_evals = Array.make (List.length eval_counters) 0;
      worker_moves = Array.make (Int.max 1 cfg.workers) 0;
      worker_busy_s = Array.make (Int.max 1 cfg.workers) 0.0;
      worker_jobs = Array.make (Int.max 1 cfg.workers) 0;
      domains = [];
      started_wall = now ();
      corpus = Corpus.create ();
    }
  in
  (* The corpus is the done jobs' winners, rebuilt from the replayed
     records. *)
  List.iter
    (fun (j : job) ->
      Hashtbl.replace t.jobs j.id j;
      Option.iter (Corpus.add t.corpus) (corpus_entry j))
    restored_jobs;
  (* A job the previous daemon never finished cannot be resumed (its worker
     died mid-anneal); fail it loudly rather than letting it vanish. This
     also journals the verdict, so a second restart replays it as failed. *)
  List.iter
    (fun (j : job) ->
      match j.state with
      | Queued | Running ->
          finish t j ~worker:None ~state:Failed ~error:"daemon restarted" ()
      | Done | Failed | Cancelled -> ())
    restored_jobs;
  t.domains <-
    List.init cfg.workers (fun w ->
        Domain.spawn (fun () ->
            (* Spawned domains start with the default nursery regardless of
               the parent's settings; size this worker's for the annealing
               hot path so minor collections (stop-the-world across all
               domains) stay rare. *)
            Gc.set { (Gc.get ()) with Gc.minor_heap_size = Core.Oblx.arena_minor_heap_words };
            worker_loop t ~worker:w));
  t

(* The corpus_lookup verb, and a warm submit's snapshot. *)
let corpus_lookup t ~shape = locked t (fun () -> Corpus.lookup t.corpus shape)

let submit t (s : Proto.submit) =
  if s.Proto.sb_runs < 1 then Error "runs must be >= 1"
  else if String.trim s.Proto.sb_source = "" then Error "empty problem source"
  else if s.Proto.sb_shard <> None then
    Error "shard_lo/shard_hi are not served: a daemon runs every restart of a job"
  else if
    List.exists (fun (v : Proto.variant) -> String.trim v.Proto.vr_name = "") s.Proto.sb_sweep
  then Error "sweep variant names must be non-empty"
  else if s.Proto.sb_sweep <> [] && s.Proto.sb_warm <> [] then
    Error "sweep jobs cannot be warm-started"
  else if s.Proto.sb_sweep <> [] && s.Proto.sb_spec_overrides <> [] then
    Error "sweep jobs take spec overrides per variant, not job-wide"
  else if List.length s.Proto.sb_warm > s.Proto.sb_runs then
    Error
      (Printf.sprintf "%d warm seeds for %d runs" (List.length s.Proto.sb_warm)
         s.Proto.sb_runs)
  else begin
    (* Warm-start consumption: a plain submit on a warm-enabled daemon
       snapshots the corpus's best entries for the problem's shape into
       the spec — at most [warm_fraction] of the restarts, the rest
       staying cold so the search never collapses onto its own history.
       The snapshot is journaled with the submit (it is part of the
       job's recorded inputs): a replay re-runs from these exact seeds
       no matter what the live corpus holds by then. An explicit sb_warm
       (a resynthesize) is left untouched. *)
    let s =
      if t.cfg.warm && s.Proto.sb_sweep = [] && s.Proto.sb_warm = [] then begin
        match Corpus.shape_of_source s.Proto.sb_source with
        | None -> s
        | Some shape ->
            let n_warm =
              Int.min s.Proto.sb_runs
                (int_of_float (t.cfg.warm_fraction *. float_of_int s.Proto.sb_runs))
            in
            if n_warm <= 0 then s
            else begin
              let rec take n = function
                | [] -> []
                | _ when n = 0 -> []
                | e :: rest -> e :: take (n - 1) rest
              in
              match take n_warm (corpus_lookup t ~shape) with
              | [] -> s
              | warm -> { s with Proto.sb_warm = warm }
            end
      end
      else s
    in
    let admitted =
      locked t (fun () ->
          if t.stopping then Error "daemon is shutting down"
          else if List.length t.queue >= t.cfg.queue_capacity then begin
            t.rejected <- t.rejected + 1;
            Error
              (Printf.sprintf "queue full: %d jobs queued (capacity %d) — retry later"
                 (List.length t.queue) t.cfg.queue_capacity)
          end
          else begin
            let id = t.next_id in
            t.next_id <- id + 1;
            let job =
              {
                (fresh_job ~id ~spec:s ~submitted_at:(now ())) with
                events =
                  (if s.Proto.sb_trace then
                     Some (Live (Obs.Sink.Ring.create ~capacity:ring_capacity))
                   else None);
              }
            in
            Hashtbl.add t.jobs id job;
            Ok (id, job, submit_record job)
          end)
    in
    match admitted with
    | Error e -> Error e
    | Ok (id, job, line) ->
        (* Journal before the job becomes runnable: a worker cannot emit
           the finish record ahead of the submit record it pairs with. *)
        log_append t line;
        maybe_rotate t;
        let enqueued =
          locked t (fun () ->
              if t.stopping then false
              else begin
                t.queue <- enqueue t.queue job;
                Condition.signal t.nonempty;
                true
              end)
        in
        (* Shutdown slipped between admission and enqueue: the drain pass
           never saw this job, so record the cancellation here. *)
        if not enqueued then begin
          Atomic.set job.cancel (Some "shutdown");
          finish t job ~worker:None ~state:Cancelled ()
        end;
        Ok id
  end

let find_job t id = Hashtbl.find_opt t.jobs id

let cancel t id =
  let finish_queued =
    locked t (fun () ->
        match find_job t id with
        | None -> Error (Printf.sprintf "unknown job %d" id)
        | Some j -> begin
            match j.state with
            | Queued ->
                Atomic.set j.cancel (Some "cancelled");
                t.queue <- List.filter (fun (q : job) -> q.id <> id) t.queue;
                Ok (Some j)
            | Running ->
                (* The annealer's abort hook picks this up at its next poll;
                   the worker records the final state. *)
                Atomic.set j.cancel (Some "cancelled");
                Ok None
            | Done | Failed | Cancelled ->
                Error (Printf.sprintf "job %d already %s" id (state_name j.state))
          end)
  in
  match finish_queued with
  | Error e -> Error e
  | Ok None -> Ok ()
  | Ok (Some j) ->
      finish t j ~worker:None ~state:Cancelled ();
      Ok ()

let with_job t id f =
  locked t (fun () ->
      match find_job t id with
      | None -> Error (Printf.sprintf "unknown job %d" id)
      | Some j -> Ok (f j))

let status_json t id = with_job t id (fun j -> job_json ~full:false t j)
let result_json t id = with_job t id (fun j -> job_json ~full:true t j)

let stats_json t =
  let cache = Core.Compile_cache.stats t.cache in
  locked t (fun () ->
      let by_state = Hashtbl.create 8 in
      Hashtbl.iter
        (fun _ (j : job) ->
          let k = state_name j.state in
          Hashtbl.replace by_state k (1 + Option.value (Hashtbl.find_opt by_state k) ~default:0))
        t.jobs;
      let count k = Option.value (Hashtbl.find_opt by_state k) ~default:0 in
      let lookups = cache.Core.Compile_cache.hits + cache.Core.Compile_cache.misses in
      Proto.ok
        [
          ("uptime_s", Json.Num (now () -. t.started_wall));
          ("workers", num_i t.cfg.workers);
          ("queue_depth", num_i (List.length t.queue));
          ("queue_capacity", num_i t.cfg.queue_capacity);
          ( "jobs",
            Json.Obj
              [
                ("total", num_i (Hashtbl.length t.jobs));
                ("queued", num_i (count "queued"));
                ("running", num_i (count "running"));
                ("done", num_i (count "done"));
                ("failed", num_i (count "failed"));
                ("cancelled", num_i (count "cancelled"));
                ("rejected", num_i t.rejected);
              ] );
          ("restored_jobs", num_i t.restored);
          ( "cache",
            Json.Obj
              [
                ("hits", num_i cache.Core.Compile_cache.hits);
                ("misses", num_i cache.Core.Compile_cache.misses);
                ("entries", num_i cache.Core.Compile_cache.entries);
                ("evictions", num_i cache.Core.Compile_cache.evictions);
                ("capacity", num_i cache.Core.Compile_cache.capacity);
                ( "hit_rate",
                  if lookups = 0 then Json.Null
                  else Json.Num (float_of_int cache.Core.Compile_cache.hits /. float_of_int lookups)
                );
              ] );
          ( "journal",
            Json.Obj
              [
                ("bytes", num_i t.log_bytes);
                ("rotations", num_i t.rotations);
                ("rejected", num_i t.journal_rejected);
                ( "rotate_bytes",
                  match t.cfg.log_rotate_bytes with Some b -> num_i b | None -> Json.Null );
              ] );
          (* Sums over every restart of every job finished since boot. *)
          ( "telemetry",
            Json.Obj
              [ ("moves", num_i t.finished_moves); ("accepted", num_i t.finished_accepted) ] );
          ( "evals",
            Json.Obj
              (List.mapi (fun i (name, _) -> (name, num_i t.finished_evals.(i))) eval_counters) );
          ( "corpus",
            let c = Corpus.stats t.corpus in
            Json.Obj
              [
                ("entries", num_i c.Corpus.entries);
                ("shapes", num_i c.Corpus.shapes);
                ("adds", num_i c.Corpus.adds);
                ("evictions", num_i c.Corpus.evictions);
                ("hits", num_i c.Corpus.hits);
                ("lookups", num_i c.Corpus.lookups);
                ("warm", Json.Bool t.cfg.warm);
                ("warm_fraction", Json.Num t.cfg.warm_fraction);
              ] );
          ( "workers_detail",
            Json.Arr
              (List.init t.cfg.workers (fun w ->
                   Json.Obj
                     [
                       ("worker", num_i w);
                       ("jobs", num_i t.worker_jobs.(w));
                       ("moves", num_i t.worker_moves.(w));
                       ("busy_s", Json.Num t.worker_busy_s.(w));
                       ( "moves_per_s",
                         if t.worker_busy_s.(w) > 0.0 then
                           Json.Num (float_of_int t.worker_moves.(w) /. t.worker_busy_s.(w))
                         else Json.Null );
                     ])) );
        ])

(* --- The resynthesize fast path --------------------------------------- *)

(* Rerun a finished job with tweaked spec targets: reuse its source (the
   compile is a cache hit), warm-start exactly one restart from its
   recorded winner (plus the winner's Hustin distribution as priors), and
   halve the restart/budget schedule unless told otherwise. Works with
   [cfg.warm] off — the explicit parent is the seed, not the corpus. *)
let resynthesize t (r : Proto.resynth) =
  let parent =
    locked t (fun () ->
        match find_job t r.Proto.rz_id with
        | None -> Error (Printf.sprintf "unknown job %d" r.Proto.rz_id)
        | Some j -> begin
            match j.state with
            | Done when j.spec.Proto.sb_sweep <> [] ->
                Error
                  (Printf.sprintf
                     "job %d is a sweep — resynthesize one variant's submit instead" j.id)
            | Done -> begin
                match j.outcome with
                | Some ({ Proto.jo_winner = Some winner; _ } as o) -> Ok (j.id, j.spec, o, winner)
                | Some _ | None ->
                    Error (Printf.sprintf "job %d has no recorded winner — submit afresh" j.id)
              end
            | st ->
                Error
                  (Printf.sprintf "job %d is %s — only done jobs resynthesize" j.id
                     (state_name st))
          end)
  in
  match parent with
  | Error e -> Error e
  | Ok (parent_id, spec, o, (values, grid, probs)) -> begin
      match
        match Netlist.Parser.parse_problem spec.Proto.sb_source with
        | ast -> Some ast
        | exception Netlist.Parser.Error _ -> None
      with
      | None -> Error (Printf.sprintf "job %d source no longer parses" parent_id)
      | Some ast -> begin
          let canon = Netlist.Canon.problem_hash ast
          and shape = Netlist.Canon.problem_shape_hash ast in
          (* Resolve each re-target's omitted bad against the parent's
             effective targets: its overrides first, the source second. *)
          let effective_bad n =
            match
              List.find_opt (fun (m, _, _) -> m = n) spec.Proto.sb_spec_overrides
            with
            | Some (_, _, bad) -> Some bad
            | None ->
                List.find_map
                  (fun (s : Netlist.Ast.spec) ->
                    if s.Netlist.Ast.spec_name = n then Some s.Netlist.Ast.bad else None)
                  ast.Netlist.Ast.specs
          in
          let unresolved, resolved =
            List.partition_map
              (fun (n, good, bad) ->
                match bad with
                | Some b -> Right (n, good, b)
                | None -> begin
                    match effective_bad n with
                    | Some b -> Right (n, good, b)
                    | None -> Left n
                  end)
              r.Proto.rz_specs
          in
          match unresolved with
          | _ :: _ ->
              Error
                (Printf.sprintf "unknown spec(s): %s" (String.concat ", " unresolved))
          | [] ->
          let entry =
            {
              Corpus.en_shape = shape;
              en_canon = canon;
              en_job = parent_id;
              en_name = spec.Proto.sb_name;
              en_cost = o.Proto.jo_best_cost;
              en_values = values;
              en_grid = grid;
              en_probs = probs;
            }
          in
          (* New targets shadow same-named parent overrides; the rest of
             the parent's overrides carry forward so the child judges the
             same problem apart from the requested tweaks. *)
          let overrides =
            List.filter
              (fun (n, _, _) ->
                not (List.exists (fun (m, _, _) -> m = n) resolved))
              spec.Proto.sb_spec_overrides
            @ resolved
          in
          let runs =
            match r.Proto.rz_runs with
            | Some n -> n
            | None -> Int.max 1 ((spec.Proto.sb_runs + 1) / 2)
          in
          let moves =
            match r.Proto.rz_moves with
            | Some m -> Some m
            | None -> Option.map (fun m -> Int.max 1 (m / 2)) spec.Proto.sb_moves
          in
          submit t
            {
              spec with
              Proto.sb_name = Printf.sprintf "%s#resynth:%d" spec.Proto.sb_name parent_id;
              sb_runs = runs;
              sb_moves = moves;
              sb_deadline_s = r.Proto.rz_deadline_s;
              sb_trace = r.Proto.rz_trace;
              sb_shard = None;
              sb_sweep = [];
              sb_warm = [ entry ];
              sb_spec_overrides = overrides;
            }
        end
    end

let shutdown t =
  let queued, domains =
    locked t (fun () ->
        if t.stopping then ([], [])
        else begin
          t.stopping <- true;
          let queued = t.queue in
          t.queue <- [];
          List.iter
            (fun (j : job) ->
              Atomic.set j.cancel (Some "shutdown");
              j.state <- Cancelled)
            queued;
          (* Trip every running job's abort hook so workers drain fast. *)
          Hashtbl.iter
            (fun _ (j : job) ->
              if j.state = Running then Atomic.set j.cancel (Some "shutdown"))
            t.jobs;
          Condition.broadcast t.nonempty;
          let d = t.domains in
          t.domains <- [];
          (queued, d)
        end)
  in
  List.iter (fun j -> finish t j ~worker:None ~state:Cancelled ()) queued;
  List.iter Domain.join domains;
  (* Workers are gone and submissions are refused: nothing appends past
     this point, so the journal can close. (A second shutdown call raises
     on the closed channel; swallow it — idempotence is the contract.) *)
  match t.log with
  | Some oc -> ( try close_out oc with Sys_error _ -> ())
  | None -> ()
