(* The synth workload: a closed loop running one job at a time in-process,
   each job making the calls [astrx synth] makes — .ast text ->
   Parser.parse_problem -> Compile.compile -> Oblx.best_of (one restart,
   jobs:1) -> Verify.simulate_specs. Jobs go round-robin over the circuits
   below and job k anneals with seed + k. *)

type circuit = { name : string; moves : int; replay_points : int }

(* The five synthesizable Table 2 circuits (AWE systems of 24 to 46 nodes,
   MOS and BJT models, where exact evaluations, probe screens and the
   dense LU/moment kernels do the work), and tran-buffer, whose anneal is
   almost all in-loop transient simulation. tran-buffer runs 100 moves:
   about 75 exact evaluations of every job are the annealer's fixed
   start-up cost, and its job time still varies 2x with the seed, so more
   short jobs keep a run's mean steady. *)
let circuits =
  List.map
    (fun name -> { name; moves = 2000; replay_points = 40 })
    [ "simple-ota"; "ota"; "two-stage"; "bicmos-two-stage"; "folded-cascode" ]
  @ [ { name = "tran-buffer"; moves = 100; replay_points = 12 } ]

(* A prediction agrees with the simulator when within this share of the
   simulated value. *)
let agree_tol = 0.05

type job = { k : int; circuit : circuit; source : string; seed : int }

let round_size = List.length circuits

(* Everything a run does before its first job: resolve the sources. *)
let prepare () =
  List.map
    (fun c ->
      match Suite.Ckts.find c.name with
      | Some e -> e.Suite.Ckts.source
      | None -> failwith ("perfbench: unknown circuit " ^ c.name))
    circuits

let job ~sources ~seed k =
  let i = k mod round_size in
  { k; circuit = List.nth circuits i; source = List.nth sources i; seed = seed + k }

type outcome = {
  job : job;
  t0 : int64;
  t1 : int64;  (** the job's start and end *)
  wall_s : float;
  error : string option;  (** failed job: compile error, exception, Verify error *)
  best_cost : float;
  counters : int list;  (** moves, accepted, evals, then every eval_stats counter *)
  specs_met : bool;
  agree : int;
  rows : int;
  result : Core.Oblx.result option;  (** kept for traced jobs only *)
}

let counters (r : Core.Oblx.result) =
  [ r.moves; r.accepted; r.evals ]
  @
  match r.eval_stats with
  | None -> []
  | Some s ->
      Core.Eval.Incr.
        [
          s.full_evals; s.incr_evals; s.dirty_vars; s.op_hits; s.op_misses; s.rom_builds;
          s.rom_reuses; s.spec_evals; s.spec_reuses; s.resyncs; s.resync_mismatches; s.probes;
          s.probe_rom_builds; s.probe_fallbacks; s.mom_reuses; s.mom_refreshes;
        ]

let mismatches (r : Core.Oblx.result) =
  match r.eval_stats with Some s -> s.Core.Eval.Incr.resync_mismatches | None -> 0

(* Specs met: every nominal constraint row's simulated value is at or
   inside its good target. Agreement: (spec) rows where OBLX's prediction
   is within [agree_tol] of the simulated value. *)
let quality (p : Core.Problem.t) (r : Core.Oblx.result) sims =
  List.fold_left
    (fun (met, agree, rows) (s : Core.Problem.spec) ->
      let sim = List.assoc_opt s.spec_name sims in
      let pred = Option.join (List.assoc_opt s.spec_name r.predicted) in
      let ok =
        match (s.kind, s.spec_corner, sim) with
        | Netlist.Ast.Constraint_ge, None, Some (Ok v) -> v >= s.good
        | Netlist.Ast.Constraint_le, None, Some (Ok v) -> v <= s.good
        | (Netlist.Ast.Constraint_ge | Netlist.Ast.Constraint_le), None, _ -> false
        | _ -> true
      in
      let agrees =
        match (pred, sim) with
        | Some pv, Some (Ok sv) -> Float.abs (pv -. sv) <= agree_tol *. Float.abs sv
        | _ -> false
      in
      (met && ok, (if agrees then agree + 1 else agree), rows + 1))
    (true, 0, 0) p.specs

(* One job. With a recorder, every call gets a span under the job's span
   and the annealer's events are stamped by a benchmark-owned sink. *)
let run_job ?rc ?on_point (j : job) =
  let t0 = Span.now () in
  let body parent =
    let span name f = fst (Span.timed rc ~parent ~job:j.k name f) in
    let ast = span "netlist.parse" (fun _ -> Netlist.Parser.parse_problem j.source) in
    match span "compile" (fun _ -> Core.Compile.compile ast) with
    | Error e -> Error ("compile: " ^ e)
    | Ok p -> (
        let best, _ =
          span "oblx.best_of" (fun id ->
              let obs =
                match rc with
                | None -> Obs.Trace.none
                | Some r ->
                    let on_point = Option.map (fun f -> f p) on_point in
                    Obs.Trace.make ~level:Obs.Event.Moves
                      [ Span.anneal_sink r ~parent:id ~job:j.k ?on_point () ]
              in
              Core.Oblx.best_of ~seed:j.seed ~moves:j.circuit.moves ~jobs:1 ~obs ~runs:1 p)
        in
        match span "verify" (fun _ -> Core.Verify.simulate_specs p best.Core.Oblx.final) with
        | Error e -> Error ("verify: " ^ e)
        | Ok sims -> Ok (p, best, sims))
  in
  let r =
    fst
      (Span.timed rc ~parent:0 ~job:j.k "job" (fun id ->
           try body id with e -> Error (Printexc.to_string e)))
  in
  let t1 = Span.now () in
  let wall_s = Span.secs t0 t1 in
  match r with
  | Error e ->
      {
        job = j; t0; t1; wall_s; error = Some e; best_cost = nan; counters = []; specs_met = false;
        agree = 0; rows = 0; result = None;
      }
  | Ok (p, best, sims) ->
      let met, agree, rows = quality p best sims in
      let error =
        if mismatches best > 0 then
          Some (Printf.sprintf "%d incremental resync mismatches" (mismatches best))
        else None
      in
      {
        job = j; t0; t1; wall_s; error; best_cost = best.Core.Oblx.best_cost;
        counters = counters best; specs_met = met; agree; rows;
        result = Option.map (fun _ -> best) rc;
      }

(* Whole rounds, so every circuit weighs the same in every run; the loop
   starts another round while time remains, so a run lasts at least
   [seconds] and at most a round more. [per_job] runs one job and returns
   the outcomes to keep. *)
let rounds ~sources ~seed ~seconds per_job =
  let t0 = Span.now () in
  let rec loop r acc =
    let round =
      List.concat_map
        (fun i -> per_job (job ~sources ~seed ((r * round_size) + i)))
        (List.init round_size Fun.id)
    in
    let acc = List.rev_append round acc in
    let el = Span.secs t0 (Span.now ()) in
    if el >= seconds then List.rev acc else loop (r + 1) acc
  in
  loop 0 []

(* Per-job means of the annealer's own counters over [results], with
   [oblx_s] the mean time per job inside [Oblx.best_of]. *)
let eval_metrics (results : Core.Oblx.result list) ~oblx_s =
  let n = float_of_int (Int.max 1 (List.length results)) in
  let mean f = List.fold_left (fun a r -> a +. f r) 0.0 results /. n in
  let stat f =
    List.fold_left
      (fun a (r : Core.Oblx.result) -> match r.eval_stats with Some s -> a + f s | None -> a)
      0 results
  in
  let ratio f g = Stat.ratio (stat f) (stat g) in
  let exact_s = mean (fun r -> float_of_int r.evals *. r.eval_time_ms /. 1000.0) in
  let open Core.Eval.Incr in
  [
    Report.m "oblx.s" "s" oblx_s;
    Report.m "eval.exact_calls" "count" (mean (fun r -> float_of_int r.evals));
    Report.m "eval.exact_ms" "ms" (mean (fun r -> r.eval_time_ms));
    Report.m "eval.exact_s" "s" exact_s;
    Report.m "anneal.non_exact_s" "s" (oblx_s -. exact_s);
    Report.m "anneal.accept_frac" "ratio" (mean (fun r -> Stat.ratio r.accepted r.moves));
    Report.m "eval.probe_calls" "count" (float_of_int (stat (fun s -> s.probes)) /. n);
    Report.m "eval.probe_refit_frac" "ratio"
      (ratio (fun s -> s.probe_rom_builds) (fun s -> s.probes));
    Report.m "eval.probe_fallback_frac" "ratio"
      (ratio (fun s -> s.probe_fallbacks) (fun s -> s.probe_rom_builds));
    Report.m "eval.op_hit_frac" "ratio"
      (ratio (fun s -> s.op_hits) (fun s -> s.op_hits + s.op_misses));
    Report.m "eval.rom_reuse_frac" "ratio"
      (ratio (fun s -> s.rom_reuses) (fun s -> s.rom_reuses + s.rom_builds));
    Report.m "eval.spec_reuse_frac" "ratio"
      (ratio (fun s -> s.spec_reuses) (fun s -> s.spec_reuses + s.spec_evals));
    Report.m "eval.resync_mismatches" "count" (float_of_int (stat (fun s -> s.resync_mismatches)));
  ]

let metric ms name =
  match List.find_opt (fun (x : Report.metric) -> x.name = name) ms with
  | Some x -> x.value
  | None -> 0.0

let quality_lines outs =
  let n = List.length outs in
  let met = List.length (List.filter (fun o -> o.specs_met) outs) in
  let agree = List.fold_left (fun a o -> a + o.agree) 0 outs in
  let rows = List.fold_left (fun a o -> a + o.rows) 0 outs in
  (Stat.ratio met n, Stat.ratio agree rows)

let failures outs = List.filter (fun o -> o.error <> None) outs

(* The median job time of a typical circuit: each circuit's median,
   combined over the circuits by geometric mean. The six circuits' jobs
   take from under 1 s to over 3 s, so a median over the pooled jobs
   falls between two circuits' sizes and jumps with the seeds, and it
   cannot see a change to the largest or the smallest circuit. *)
let typical_median outs times =
  let logs =
    List.map
      (fun (c : circuit) ->
        log
          (Stat.median
             (List.filter_map
                (fun (o, t) -> if o.job.circuit.name = c.name then Some t else None)
                (List.combine outs times))))
      circuits
  in
  exp (Stat.mean logs)

let describe_failures outs =
  List.map
    (fun o ->
      Printf.sprintf "FAILED job %d (%s seed %d): %s" o.job.k o.job.circuit.name o.job.seed
        (Option.value o.error ~default:""))
    (failures outs)

(* ---- untraced run: the end-to-end metrics ------------------------------ *)

(* Times are reported in seconds at the yardstick's reference speed:
   [yard] stops the sampler that ran through set-up and the jobs, and
   [setup] holds the set-up spawns' start and end. *)
let end_to_end ~sources ~seed ~seconds ~setup ~yard =
  let outs = rounds ~sources ~seed ~seconds (fun j -> [ run_job j ]) in
  let ys = yard () in
  let rss = Report.vm_hwm_mb "self" in
  let setup_s = Stat.median (List.map (fun (a, b) -> Yard.scale ys a b) setup) in
  let walls = List.map (fun o -> Yard.scale ys o.t0 o.t1) outs in
  let raw = List.map (fun o -> o.wall_s) outs in
  let n = List.length outs in
  let elapsed = Stat.sum walls in
  let specs_met, agree = quality_lines outs in
  let failed = List.length (failures outs) in
  let tail =
    match Stat.tail walls with
    | Some (pct, v) -> Printf.sprintf "job_s_tail %.4f s (p%d of %d jobs, 10 beyond)" v pct n
    | None -> Printf.sprintf "job_s_tail omitted (%d jobs; needs 20)" n
  in
  {
    Report.attempted = n;
    failed;
    metrics =
      [
        Report.m "setup_s" "s" setup_s;
        Report.m "jobs_per_s" "1/s" (float_of_int n /. elapsed);
        Report.m "job_s_p50" "s" (typical_median outs walls);
        Report.m "peak_rss_mb" "MB" rss;
      ];
    lines =
      [
        Printf.sprintf
          "wall clock: jobs_per_s %.4f /s, job_s_p50 %.4f s; the CPU ran at %.2f of reference \
           speed (%d yardstick samples)"
          (float_of_int n /. Stat.sum raw) (typical_median outs raw) (Yard.speed ys)
          (Array.length ys);
        Printf.sprintf "median of the pooled jobs %.4f s (wall %.4f s)" (Stat.median walls)
          (Stat.median raw);
        tail;
        Printf.sprintf "fail_frac %.4f (%d of %d jobs)" (Stat.ratio failed n) failed n;
        Printf.sprintf "specs_met_frac %.4f" specs_met;
        Printf.sprintf "pred_sim_agree_frac %.4f (tolerance %.0f%% of simulated)" agree
          (100.0 *. agree_tol);
      ]
      @ List.map2
          (fun o w ->
            Printf.sprintf "job %d %s seed %d: %.3f s (wall %.3f s), best_cost %.17g" o.job.k
              o.job.circuit.name o.job.seed w o.wall_s o.best_cost)
          outs walls
      @ describe_failures outs;
  }

(* ---- traced run: the per-layer metrics ---------------------------------- *)

(* Jobs whose accepted points feed the kernel replay: the first of each
   circuit. *)
let replayed (j : job) = j.k < round_size

let per_layer ~sources ~seed ~seconds ~spans_path =
  let rc = Span.create () in
  let points = Hashtbl.create 8 in
  let on_point (j : job) (p : Core.Problem.t) ~weights:(wp, wd, wdc) values grid =
    if replayed j then begin
      let pts = Option.value (Hashtbl.find_opt points j.k) ~default:(p, []) in
      if List.length (snd pts) <= j.circuit.replay_points then
        Hashtbl.replace points j.k
          ( p,
            {
              Kernels.w = { Core.Weights.w_perf = wp; w_dev = wd; w_dc = wdc };
              st = { Core.State.info = p.Core.Problem.state0.info; values; grid_index = grid };
            }
            :: snd pts )
    end
  in
  (* Each job runs untraced and traced: the pair gives the tracing overhead
     on identical work and the determinism guard. Which pass goes first
     alternates per circuit from round to round, so every circuit runs in
     both orders equally often and a first-run or drift effect cancels. *)
  let pairs =
    rounds ~sources ~seed ~seconds (fun j ->
        let plain () = run_job j in
        let traced () = run_job ~rc ~on_point:(fun p -> on_point j p) j in
        if ((j.k / round_size) + j.k) mod 2 = 0 then
          let a = plain () in
          [ (a, traced ()) ]
        else
          let b = traced () in
          [ (plain (), b) ])
  in
  let plain = List.map fst pairs and traced = List.map snd pairs in
  let n = List.length traced in
  (* Determinism guard: identical winners and counters, pass against pass. *)
  let bits x = Int64.bits_of_float x in
  let mismatched =
    List.filter_map
      (fun (a, b) ->
        let same = bits a.best_cost = bits b.best_cost && a.counters = b.counters in
        if a.error <> None || b.error <> None || same then None
        else
          Some
            (Printf.sprintf
               "DETERMINISM job %d (%s seed %d): best_cost %.17g vs %.17g, counters %s" a.job.k
               a.job.circuit.name a.job.seed a.best_cost b.best_cost
               (if a.counters = b.counters then "equal" else "differ")))
      pairs
  in
  let q_plain = quality_lines plain and q_traced = quality_lines traced in
  let quality_mismatch =
    if q_plain = q_traced then []
    else [ "DETERMINISM specs_met_frac/pred_sim_agree_frac differ between passes" ]
  in
  (* Reconciliation: the phase spans tile each job, and the sink's restart
     span, stamped from the annealer's own Restart and Done events, covers
     the time around [Oblx.best_of]. *)
  let tol = 0.03 in
  let job_gap, bad_jobs =
    Span.reconcile rc ~parent_name:"job"
      ~children:[ "netlist.parse"; "compile"; "oblx.best_of"; "verify" ]
      ~tol
  in
  let restart_gap, bad_restarts =
    Span.reconcile rc ~parent_name:"oblx.best_of" ~children:[ "anneal.restart" ] ~tol
  in
  let reconcile_fail =
    List.map
      (fun k ->
        Printf.sprintf "RECONCILE job %d: phase spans miss its wall time by more than %.0f%%" k
          (100.0 *. tol))
      (List.sort_uniq compare (bad_jobs @ bad_restarts))
  in
  (* Kernel replay over the recorded points, outside the measured passes. *)
  let kt = Kernels.create () in
  Hashtbl.iter (fun _ (p, pts) -> Kernels.replay kt p (List.rev pts)) points;
  Span.write rc spans_path;
  let per_job name = Span.total rc name /. float_of_int (Int.max 1 n) in
  let evals =
    eval_metrics (List.filter_map (fun o -> o.result) traced) ~oblx_s:(per_job "oblx.best_of")
  in
  let ms = Kernels.ms_per_call kt in
  let wall_plain = Stat.sum (List.map (fun o -> o.wall_s) plain) in
  let wall_traced = Stat.sum (List.map (fun o -> Span.total ~job:o.job.k rc "job") traced) in
  let failed_jobs =
    List.length (List.filter (fun (a, b) -> a.error <> None || b.error <> None) pairs)
  in
  let check_failures =
    List.length mismatched + List.length reconcile_fail + List.length quality_mismatch
  in
  let metrics =
    evals
    @ [
      Report.m "netlist.parse_ms" "ms" (1000.0 *. per_job "netlist.parse");
      Report.m "compile.ms" "ms" (1000.0 *. per_job "compile");
      Report.m "verify.s" "s" (per_job "verify");
      Report.m "anneal.hook_s" "s" (per_job "anneal.hook");
      Report.m "anneal.finish_s" "s" (per_job "anneal.finish");
      Report.m "eval.full_ms" "ms" (ms "eval.full");
      Report.m "eval.incr_ms" "ms" (ms "eval.incr");
      Report.m "eval.probe_ms" "ms" (ms "eval.probe");
      Report.m "eval.probe_est_s" "s"
        (metric evals "eval.probe_calls" *. ms "eval.probe" /. 1000.0);
      Report.m "eval.bias_ms" "ms" (ms "eval.bias");
      Report.m "eval.measure_ms" "ms" (ms "eval.measure");
      Report.m "eval.fold_ms" "ms" (ms "eval.fold");
      Report.m "mna.stamp_ms" "ms" (ms "mna.stamp");
      Report.m "la.lu_ms" "ms" (ms "la.lu");
      Report.m "awe.moments_ms" "ms" (ms "awe.moments");
      Report.m "awe.rom_ms" "ms" (ms "awe.rom");
      Report.m "mna.tran_ms" "ms" (ms "mna.tran");
      Report.m "trace.overhead_frac" "ratio" ((wall_traced /. wall_plain) -. 1.0);
    ]
  in
  {
    Report.attempted = n;
    failed = failed_jobs + check_failures;
    metrics;
    lines =
      [
        Printf.sprintf "traced %d jobs (each also run untraced); spans in %s" n spans_path;
        Printf.sprintf "reconcile: worst job gap %.2f%%, worst best_of gap %.2f%% (limit %.0f%%)"
          (100.0 *. job_gap) (100.0 *. restart_gap) (100.0 *. tol);
        Printf.sprintf
          "determinism: %d of %d jobs identical untraced vs traced; specs_met_frac %.4f, \
           pred_sim_agree_frac %.4f"
          (n - List.length mismatched)
          n (fst q_traced) (snd q_traced);
        Printf.sprintf "kernel replay: %d jobs, %d incr / %d probe / %d full calls"
          (Hashtbl.length points) (Kernels.calls kt "eval.incr") (Kernels.calls kt "eval.probe")
          (Kernels.calls kt "eval.full");
      ]
      @ describe_failures plain @ describe_failures traced @ mismatched @ quality_mismatch
      @ reconcile_fail;
  }
