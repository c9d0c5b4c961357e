type trace_point = {
  tp_moves : int;
  tp_cost : float;
  tp_best : float;
  tp_max_kcl_rel : float;
  tp_max_kcl_abs : float;
  tp_temperature : float;
}

type result = {
  final : State.t;
  predicted : (string * float option) list;
  best_cost : float;
  moves : int;
  accepted : int;
  froze_early : bool;
  cut_short : bool;
  cut_reason : string option;
  evals : int;
  eval_time_ms : float;
  run_time_s : float;
  trace : trace_point list;
  eval_stats : Eval.Incr.stats option;
  probs : float array;
  warm : string option;
}

type warm_start = {
  ws_label : string;
  ws_values : float array;
  ws_grid : int array;
  ws_probs : float array option;
}

type control = progress:float -> best:float -> string option

let kcl_stats (bp : Eval.bias_point) =
  let rel = ref 0.0 and abs_ = ref 0.0 in
  Array.iteri
    (fun k r ->
      abs_ := Float.max !abs_ (Float.abs r);
      rel := Float.max !rel (Float.abs r /. (bp.Eval.res_scale.(k) +. 1e-9)))
    bp.Eval.residuals;
  (!rel, !abs_)

(* Default tournament size for batched candidate screening: large enough
   that the exact-confirmation cost amortizes over several screened
   candidates, small enough that the screen's ranking still tracks the
   exact landscape within a tournament. *)
let default_probe_batch = 8

let synthesize ?(seed = 1) ?rng ?moves ?(incremental = true)
    ?(probe_batch = default_probe_batch) ?session ?control ?warm ?(obs = Obs.Trace.none)
    (p : Problem.t) =
  let n_vars = State.n_vars p.Problem.state0 in
  (match warm with
  | Some w ->
      if Array.length w.ws_values <> n_vars || Array.length w.ws_grid <> n_vars then
        invalid_arg
          (Printf.sprintf "Oblx.synthesize: warm seed '%s' has %d variables, problem has %d"
             w.ws_label (Array.length w.ws_values) n_vars)
  | None -> ());
  let total_moves =
    match moves with Some m -> m | None -> Int.min 150_000 (Int.max 8_000 (2000 * n_vars))
  in
  let weights = Weights.create () in
  (* One incremental-evaluation session per annealing run: the session's
     caches follow this run's trajectory (including undo of rejected
     moves, which the value diff detects like any other move) and serve
     bit-identical costs, so the trajectory — and the winner — match the
     full evaluator exactly. A caller-supplied [session] (the per-domain
     arena of [best_of]) is reset, which makes it observationally a fresh
     one without reallocating its arrays. *)
  let session =
    match session with
    | Some ss ->
        Eval.Incr.reset ss;
        Some ss
    | None -> if incremental then Some (Eval.Incr.create p) else None
  in
  let ctx = Moves.make ?session p in
  let rng = match rng with Some r -> r | None -> Anneal.Rng.create seed in
  let evals = ref 0 in
  let eval_clock = ref 0.0 in
  let cost st =
    let t0 = Unix.gettimeofday () in
    let c =
      match session with
      | Some ss -> Eval.Incr.cost_scalar ss weights st
      | None -> Eval.cost_scalar p weights st
    in
    eval_clock := !eval_clock +. (Unix.gettimeofday () -. t0);
    incr evals;
    if Float.is_finite c then c else 1e12
  in
  let measure st =
    match session with Some ss -> Eval.Incr.measure_with ss st | None -> Eval.measure p st
  in
  Obs.Trace.emit obs ~moves:0 ~temperature:0.0 ~acceptance:1.0
    (Obs.Event.Restart { total_moves; classes = Moves.classes });
  let trace = ref [] in
  let last_discrete = ref [||] in
  let stable_stages = ref 0 in
  let on_stage st (info : Anneal.Annealer.stage_info) =
    (* Adaptive weights from the unweighted group penalties. *)
    let m = measure st in
    let obj, perf, dev, dc = Eval.raw_terms p st m in
    let progress = float_of_int info.moves_done /. float_of_int total_moves in
    Weights.update weights ~progress ~perf ~dev ~dc;
    (* The weights are part of the cost function, so replay tracks these
       events to re-evaluate later accepted states; eq. (2) term breakdown
       rides along for explainability. *)
    Obs.Trace.emit obs ~moves:info.moves_done ~temperature:info.temperature
      ~acceptance:info.acceptance
      (Obs.Event.Weight_update
         {
           w_perf = weights.Weights.w_perf;
           w_dev = weights.Weights.w_dev;
           w_dc = weights.Weights.w_dc;
           c_obj = obj;
           c_perf = perf;
           c_dev = dev;
           c_dc = dc;
         });
    (match session with
    | Some ss ->
        let es = Eval.Incr.stats ss in
        Obs.Trace.emit obs ~moves:info.moves_done ~temperature:info.temperature
          ~acceptance:info.acceptance
          (Obs.Event.Evals
             {
               full = es.Eval.Incr.full_evals;
               incr = es.Eval.Incr.incr_evals;
               dirty_vars = es.Eval.Incr.dirty_vars;
               op_hits = es.Eval.Incr.op_hits;
               op_misses = es.Eval.Incr.op_misses;
               rom_builds = es.Eval.Incr.rom_builds;
               rom_reuses = es.Eval.Incr.rom_reuses;
               spec_evals = es.Eval.Incr.spec_evals;
               spec_reuses = es.Eval.Incr.spec_reuses;
               resyncs = es.Eval.Incr.resyncs;
               resync_mismatches = es.Eval.Incr.resync_mismatches;
               probes = es.Eval.Incr.probes;
               probe_rom_builds = es.Eval.Incr.probe_rom_builds;
               per_class =
                 List.map
                   (fun (c : Eval.Incr.class_row) ->
                     {
                       Obs.Event.ec_name = c.Eval.Incr.cr_class;
                       ec_evals = c.Eval.Incr.cr_evals;
                       ec_dirty = c.Eval.Incr.cr_dirty_vars;
                       ec_op_hits = c.Eval.Incr.cr_op_hits;
                       ec_op_misses = c.Eval.Incr.cr_op_misses;
                       ec_rom_builds = c.Eval.Incr.cr_rom_builds;
                       ec_rom_reuses = c.Eval.Incr.cr_rom_reuses;
                     })
                   es.Eval.Incr.by_class;
             })
    | None -> ());
    let rel, abs_ = kcl_stats m.Eval.bias in
    trace :=
      {
        tp_moves = info.moves_done;
        tp_cost = info.current_cost;
        tp_best = info.best_cost;
        tp_max_kcl_rel = rel;
        tp_max_kcl_abs = abs_;
        tp_temperature = info.temperature;
      }
      :: !trace;
    (* Discrete-variable stability for the freezing criterion. *)
    let disc = Array.copy st.State.grid_index in
    if !last_discrete <> [||] && disc = !last_discrete then incr stable_stages
    else stable_stages := 0;
    last_discrete := disc
  in
  let frozen _st = !stable_stages >= 8 && Moves.ranges_converged ctx in
  (* The cutoff's verdict is kept, not just its boolean: an aborted restart
     must still account for why it stopped in its own result and in the
     trace's [Done] event, instead of the reason dying inside the poll. *)
  let cut_reason = ref None in
  let abort =
    Option.map
      (fun (cutoff : control) (info : Anneal.Annealer.stage_info) ->
        let progress = float_of_int info.moves_done /. float_of_int total_moves in
        match cutoff ~progress ~best:info.best_cost with
        | Some reason ->
            if !cut_reason = None then cut_reason := Some reason;
            true
        | None -> false)
      control
  in
  let problem =
    {
      Anneal.Annealer.classes = Moves.classes;
      propose =
        (fun st k rng ->
          (match session with
          | Some ss -> Eval.Incr.set_class ss Moves.classes.(k)
          | None -> ());
          Moves.propose ctx st k rng);
      cost;
      snapshot = State.snapshot;
      frozen = Some frozen;
      on_stage = Some on_stage;
      on_result = Some (fun k ~accepted -> Moves.record_result ctx k ~accepted);
      abort;
      (* Batched screening needs the retained caches of the incremental
         session — without one there is no cheap probe, so the full
         evaluator keeps its one-candidate-per-move behavior. Screens are
         not counted in [evals]/[eval_clock]: those meter exact
         evaluations, and the probe counters in [Eval.Incr.stats]
         meter the screening work. *)
      batch =
        (match session with
        | Some ss when probe_batch > 1 ->
            Some
              {
                Anneal.Annealer.batch_size = probe_batch;
                screenable = Moves.screenable;
                screen =
                  (fun st ->
                    let c = Eval.Incr.probe_cost ss weights st in
                    if Float.is_finite c then c else 1e12);
              }
        | Some _ | None -> None);
    }
  in
  let t_start = Unix.gettimeofday () in
  (* A warm seed replaces the description's initial point with a prior
     winner's design vector (copied — the caller's corpus entry must not
     be mutated by the anneal) and optionally restores the Hustin mix it
     converged to. Cold runs take the exact pre-warm-start path. *)
  let init =
    match warm with
    | None -> State.snapshot p.Problem.state0
    | Some w ->
        {
          State.info = p.Problem.state0.State.info;
          values = Array.copy w.ws_values;
          grid_index = Array.copy w.ws_grid;
        }
  in
  let priors = Option.bind warm (fun w -> w.ws_probs) in
  let view (st : State.t) = (Array.copy st.State.values, Array.copy st.State.grid_index) in
  let outcome = Anneal.Annealer.run ~trace:obs ~view ?priors ~rng ~total_moves ~init problem in
  (* Final polish: drive the relaxed-dc residuals to zero with full NR so
     the winning design is dc-correct like a simulated circuit. *)
  let best = outcome.Anneal.Annealer.best in
  let rec polish k =
    if k = 0 then ()
    else begin
      match Moves.newton_step_with ?session p best ~damping:1.0 with
      | Some change when change > 1e-12 -> polish (k - 1)
      | Some _ | None -> ()
    end
  in
  polish 25;
  (* If the iterated polish stalled short of dc-correctness, let the full
     simulator engine finish the job. *)
  (let bp = Eval.bias_point p best in
   let worst =
     Array.fold_left (fun a r -> Float.max a (Float.abs r)) 0.0 bp.Eval.residuals
   in
   if worst > 1e-9 then begin
     ignore (Moves.newton_global p best);
     polish 10
   end);
  let run_time_s = Unix.gettimeofday () -. t_start in
  let m = measure best in
  Obs.Trace.emit obs ~moves:outcome.Anneal.Annealer.moves ~temperature:0.0
    ~acceptance:
      (if outcome.Anneal.Annealer.moves > 0 then
         float_of_int outcome.Anneal.Annealer.accepted
         /. float_of_int outcome.Anneal.Annealer.moves
       else 0.0)
    (Obs.Event.Done
       {
         best_cost = outcome.Anneal.Annealer.best_cost;
         final_cost = outcome.Anneal.Annealer.final_cost;
         accepted = outcome.Anneal.Annealer.accepted;
         stages = outcome.Anneal.Annealer.stages;
         froze_early = outcome.Anneal.Annealer.froze_early;
         aborted = outcome.Anneal.Annealer.aborted;
         abort_reason = !cut_reason;
       });
  {
    final = best;
    predicted = m.Eval.spec_values;
    best_cost = outcome.Anneal.Annealer.best_cost;
    moves = outcome.Anneal.Annealer.moves;
    accepted = outcome.Anneal.Annealer.accepted;
    froze_early = outcome.Anneal.Annealer.froze_early;
    cut_short = outcome.Anneal.Annealer.aborted;
    cut_reason = !cut_reason;
    evals = !evals;
    eval_time_ms = (if !evals > 0 then 1000.0 *. !eval_clock /. float_of_int !evals else 0.0);
    run_time_s;
    trace = List.rev !trace;
    eval_stats = Option.map Eval.Incr.stats session;
    probs = outcome.Anneal.Annealer.probs;
    warm = Option.map (fun w -> w.ws_label) warm;
  }

let score (p : Problem.t) (r : result) =
  (* Rank runs by final cost, with failed measurements pushed last. *)
  let failed =
    List.exists (fun (_, v) -> v = None) r.predicted && p.Problem.specs <> []
  in
  if failed then r.best_cost +. 1e6 else r.best_cost

let default_jobs () = Int.max 1 (Domain.recommended_domain_count () - 1)

(* --- Per-domain perf accounting, surfaced by [best_of ?perf]. --- *)

type domain_report = {
  d_index : int;
  d_restarts : int;
  d_wall_s : float;
  d_minor_collections : int;
  d_major_collections : int;
  d_promoted_words : float;
  d_minor_words : float;
}

type parallel_report = {
  pr_jobs : int;
  pr_runs : int;
  pr_domains : domain_report list;
}

(* Minor-heap words per worker domain when [best_of] runs parallel. In
   OCaml 5 every minor collection is a stop-the-world barrier across ALL
   domains, so undersized per-domain minor heaps make domains spend their
   time synchronizing instead of annealing. The evaluator arenas keep the
   allocation rate low; the larger nursery makes the remaining minor
   collections rare. Spawned domains do not inherit the parent's Gc
   settings, so each worker sets its own. *)
let arena_minor_heap_words = 1 lsl 22

let best_of ?(seed = 1) ?moves ?jobs ?(incremental = true)
    ?(probe_batch = default_probe_batch) ?cutoff ?(warm_starts = [||])
    ?(obs = Obs.Trace.none) ?perf ~runs (p : Problem.t) =
  if runs < 1 then invalid_arg "Oblx.best_of: runs must be >= 1";
  (* Warm seeds attach to restart indices positionally: restart k < |seeds|
     anneals from seed k, the rest stay cold for exploration. The mapping
     is by index — not by scheduling order — so the winner stays
     bit-identical for every [jobs] value, exactly like the RNG streams. *)
  if Array.length warm_starts > runs then
    invalid_arg
      (Printf.sprintf "Oblx.best_of: %d warm seeds for %d runs" (Array.length warm_starts) runs);
  let jobs = Int.min runs (match jobs with Some j -> Int.max 1 j | None -> default_jobs ()) in
  (* Restart k always anneals with the k-th split of the root generator, so
     the set of runs — and therefore the winner — is independent of how the
     runs are scheduled across domains. *)
  let root = Anneal.Rng.create seed in
  let streams = Array.make runs root in
  for k = 0 to runs - 1 do
    streams.(k) <- Anneal.Rng.split root
  done;
  (* The external cutoff (deadline / cancellation from the serve layer)
     never perturbs the annealing trajectory unless it fires, so the
     bit-for-bit determinism guarantee holds for un-cut runs. *)
  let control = Option.map (fun f ~progress:_ ~best:_ -> f ()) cutoff in
  let results : result option array = Array.make runs None in
  let next = Atomic.make 0 in
  let reports : domain_report option array = Array.make jobs None in
  (* Each worker owns the runs it claims: every slot of [results] is written
     by exactly one domain, and Domain.join publishes them to this one. *)
  let worker w =
    if jobs > 1 then Gc.set { (Gc.get ()) with Gc.minor_heap_size = arena_minor_heap_words };
    let t0 = Unix.gettimeofday () in
    let g0 = Gc.quick_stat () in
    let claimed = ref 0 in
    (* One evaluator arena per domain, reset between the restarts this
       worker claims — allocation stays domain-local across the whole
       worker lifetime. *)
    let session = if incremental then Some (Eval.Incr.create p) else None in
    let rec take () =
      let k = Atomic.fetch_and_add next 1 in
      if k < runs then begin
        incr claimed;
        (* Restart-tagged events let the shared sinks demultiplex the
           interleaved streams of concurrent domains. *)
        let obs_k = Obs.Trace.with_restart obs k in
        let warm = if k < Array.length warm_starts then Some warm_starts.(k) else None in
        let r =
          synthesize ~rng:streams.(k) ?moves ~incremental ~probe_batch ?session ?control ?warm
            ~obs:obs_k p
        in
        results.(k) <- Some r;
        take ()
      end
    in
    take ();
    let g1 = Gc.quick_stat () in
    reports.(w) <-
      Some
        {
          d_index = w;
          d_restarts = !claimed;
          d_wall_s = Unix.gettimeofday () -. t0;
          d_minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
          d_major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
          d_promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
          d_minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
        }
  in
  (if jobs <= 1 then worker 0
   else begin
     (* The caller's domain is worker 0; restore its Gc parameters after
        the parallel section (spawned domains die with theirs). *)
     let saved = Gc.get () in
     let domains = List.init (jobs - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1))) in
     worker 0;
     List.iter Domain.join domains;
     Gc.set saved
   end);
  (match perf with
  | Some f ->
      f
        {
          pr_jobs = jobs;
          pr_runs = runs;
          pr_domains = Array.to_list reports |> List.filter_map Fun.id;
        }
  | None -> ());
  let results = Array.to_list results |> List.filter_map Fun.id in
  (* Strict < keeps the earliest run on ties, independent of scheduling. *)
  let best =
    List.fold_left
      (fun acc r -> match acc with None -> Some r | Some b -> if score p r < score p b then Some r else acc)
      None results
  in
  (Option.get best, results)

(* ------------------------------------------------------------------ *)
(* Job-facing synthesis: deadlines and cancellation                    *)
(* ------------------------------------------------------------------ *)

let deadline_reason = "deadline"

let run_job ?(seed = 1) ?moves ?(runs = 1) ?jobs ?(incremental = true)
    ?(probe_batch = default_probe_batch) ?deadline_s ?poll ?warm_starts
    ?(obs = Obs.Trace.none) ?perf (p : Problem.t) =
  (* The deadline clock starts here — queue wait is the caller's budget to
     spend before calling — and is polled through the annealer's abort
     hook, so an already-expired deadline stops a run before its first
     move. The cancellation [poll] wins over the deadline: an operator's
     verdict is more informative than a timer's. *)
  let t0 = Unix.gettimeofday () in
  let cutoff () =
    match (match poll with Some f -> f () | None -> None) with
    | Some reason -> Some reason
    | None -> begin
        match deadline_s with
        | Some budget when Unix.gettimeofday () -. t0 > budget -> Some deadline_reason
        | Some _ | None -> None
      end
  in
  let cutoff = if poll = None && deadline_s = None then None else Some cutoff in
  best_of ~seed ?moves ?jobs ~incremental ~probe_batch ?cutoff ?warm_starts
    ~obs ?perf ~runs p

(* ------------------------------------------------------------------ *)
(* Trace replay                                                        *)
(* ------------------------------------------------------------------ *)

let replay_cost (p : Problem.t) : Obs.Replay.cost_fn =
 fun ~w_perf ~w_dev ~w_dc ~values ~grid ->
  (* Rebuild a state over the problem's variable metadata from the recorded
     design point, and a weights record from the tracked trajectory; the
     non-finite clamp matches [synthesize]'s cost wrapper exactly. *)
  let n = State.n_vars p.Problem.state0 in
  if Array.length values <> n || Array.length grid <> n then
    invalid_arg
      (Printf.sprintf "Oblx.replay_cost: recorded state has %d variables, problem has %d"
         (Array.length values) n);
  let st = { State.info = p.Problem.state0.State.info; values; grid_index = grid } in
  let w = { Weights.w_perf; w_dev; w_dc } in
  let c = Eval.cost_scalar p w st in
  if Float.is_finite c then c else 1e12

let replay ?tol (p : Problem.t) events = Obs.Replay.check ~cost:(replay_cost p) ?tol events
