(* The astrx command-line tool: compile a synthesis problem, run OBLX on
   it, verify the result against the reference simulator.

   astrx compile FILE          analysis only (the Table-1 row)
   astrx synth FILE            synthesize and report
   astrx bench NAME            run a built-in benchmark circuit
   astrx replay NAME TRACE     re-check a recorded trace against the cost fn
   astrx submit PROBLEM        queue a job on a running oblxd daemon
   astrx status|result|cancel ID / stats / shutdown
                               talk to the daemon (docs/SERVER.md)
*)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let print_analysis name (p : Core.Problem.t) =
  let a = p.Core.Problem.analysis in
  Printf.printf "%s: ASTRX analysis\n" name;
  Printf.printf "  input lines          : %d netlist + %d synthesis-specific\n"
    a.Core.Problem.input_netlist_lines a.input_synth_lines;
  Printf.printf "  user variables       : %d\n" a.n_user_vars;
  Printf.printf "  node-voltage vars    : %d (relaxed-dc)\n" a.n_node_vars;
  Printf.printf "  cost-function terms  : %d\n" a.n_cost_terms;
  Printf.printf "  generated code size  : %d (C-lines metric)\n" a.lines_of_c;
  Printf.printf "  bias circuit         : %d nodes, %d elements\n" a.bias_nodes a.bias_elements;
  List.iter
    (fun (j, n_, e) -> Printf.printf "  AWE circuit %-8s : %d nodes, %d elements\n" j n_ e)
    a.awe_circuits

let print_result (p : Core.Problem.t) (r : Core.Oblx.result) ~verify =
  Printf.printf "synthesis: cost=%.4g moves=%d evals=%d (%.2f ms/eval) in %.1f s%s\n"
    r.Core.Oblx.best_cost r.moves r.evals r.eval_time_ms r.run_time_s
    (if r.froze_early then ", froze" else "");
  Printf.printf "sized design:\n";
  Core.Report.print_sizes Format.std_formatter p r.final;
  Format.pp_print_flush Format.std_formatter ();
  let sims =
    if verify then
      match Core.Verify.simulate_specs p r.final with
      | Ok sims -> Some sims
      | Error e ->
          Printf.printf "verification failed: %s\n" e;
          None
    else None
  in
  Printf.printf "%-10s %-12s %10s / %-10s\n" "spec" "goal" "oblx" "sim";
  List.iter
    (fun (s : Core.Problem.spec) ->
      let predicted = List.assoc s.Core.Problem.spec_name r.predicted in
      let simulated = Option.map (List.assoc s.Core.Problem.spec_name) sims in
      print_endline (Core.Report.spec_row s ~predicted ~simulated))
    p.Core.Problem.specs

open Cmdliner

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Problem description file")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed")
let moves_arg = Arg.(value & opt (some int) None & info [ "moves" ] ~doc:"Annealing move budget")
let runs_arg = Arg.(value & opt int 1 & info [ "runs" ] ~doc:"Independent annealing runs")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs" ]
        ~doc:
          "Worker domains running the independent restarts in parallel (default: cores - 1). \
           The winner is bit-identical for any job count; see docs/PARALLEL.md.")

let early_stop_arg =
  Arg.(
    value
    & flag
    & info [ "early-stop" ]
        ~doc:
          "Let laggard restarts give up once another run has published a much better cost \
           (faster, but the winner may differ from the deterministic default)")

let no_verify_arg =
  Arg.(value & flag & info [ "no-verify" ] ~doc:"Skip reference-simulator verification")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write annealing telemetry (one JSON event per line) to $(docv); see \
           docs/OBSERVABILITY.md. With --runs > 1 every restart shares the file, tagged by \
           restart index.")

let trace_level_conv =
  let parse s =
    match Obs.Event.level_of_string s with Ok l -> Ok l | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, fun fmt l -> Format.pp_print_string fmt (Obs.Event.level_to_string l))

let trace_level_arg =
  Arg.(
    value
    & opt trace_level_conv Obs.Event.Moves
    & info [ "trace-level" ] ~docv:"LEVEL"
        ~doc:
          "Trace verbosity: $(b,summary) (restart/done), $(b,stage) (+ per-stage cost, Hustin \
           probabilities, weight updates), or $(b,moves) (+ every decided move with accepted \
           design points — required for $(b,astrx replay)). Default $(b,moves).")

(* The trace handle for one CLI invocation, or [Trace.none] without --trace. *)
let make_trace path level =
  match path with
  | None -> Obs.Trace.none
  | Some path -> Obs.Trace.make ~level [ Obs.Sink.jsonl_file path ]

let no_incremental_arg =
  Arg.(
    value
    & flag
    & info [ "no-incremental" ]
        ~doc:
          "Evaluate every move with the full cost function instead of the move-scoped \
           incremental evaluator (escape hatch; also disables batched candidate screening, \
           see $(b,--probe-batch))")

let probe_batch_arg =
  Arg.(
    value
    & opt int Core.Oblx.default_probe_batch
    & info [ "probe-batch" ] ~docv:"K"
        ~doc:
          "Candidates screened per annealing decision with the reduced-order probe evaluator \
           before the winner is confirmed exactly (accepted costs stay bit-identical to the \
           full evaluator). $(b,1) disables screening and reproduces the classic \
           one-candidate trajectory")

let netlist_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dump-netlist" ] ~docv:"FILE" ~doc:"Write the sized design as a SPICE deck")

let compile_cmd =
  let run file =
    match Core.Compile.compile_source (read_file file) with
    | Error e ->
        prerr_endline e;
        1
    | Ok p ->
        print_analysis file p;
        0
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile a problem and print ASTRX's analysis")
    Term.(const run $ file_arg)

let synth_source name src seed moves runs jobs early_stop no_incremental probe_batch no_verify
    dump trace_path trace_level =
  match Core.Compile.compile_source src with
  | Error e ->
      prerr_endline e;
      1
  | Ok _ when runs < 1 ->
      prerr_endline "astrx: --runs must be >= 1";
      1
  | Ok p ->
      print_analysis name p;
      let obs = make_trace trace_path trace_level in
      let best, all =
        Core.Oblx.best_of ~seed ?moves ?jobs ~early_stop ~incremental:(not no_incremental)
          ~probe_batch ~obs ~runs p
      in
      Obs.Trace.close obs;
      (match trace_path with
      | Some path ->
          Printf.printf "trace written to %s (level %s)\n" path
            (Obs.Event.level_to_string trace_level)
      | None -> ());
      if runs > 1 then begin
        let cuts = List.filter (fun r -> r.Core.Oblx.cut_short) all in
        Printf.printf "multi-start: %d runs on %d domain(s)%s\n" runs
          (Int.min runs (Int.max 1 (Option.value jobs ~default:(Core.Oblx.default_jobs ()))))
          (if cuts <> [] then Printf.sprintf ", %d cut short" (List.length cuts) else "");
        List.iter
          (fun (r : Core.Oblx.result) ->
            match r.Core.Oblx.cut_reason with
            | Some reason -> Printf.printf "  cut: %s\n" reason
            | None -> ())
          cuts
      end;
      print_result p best ~verify:(not no_verify);
      (match best.Core.Oblx.eval_stats with
      | Some es when es.Core.Eval.Incr.incr_evals > 0 ->
          let pct a b = if a + b = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int (a + b) in
          Printf.printf
            "eval: %d incremental + %d full; op cache %.1f%% hit, ROM reuse %.1f%%, spec reuse \
             %.1f%%; %d resyncs, %d mismatches\n"
            es.Core.Eval.Incr.incr_evals es.Core.Eval.Incr.full_evals
            (pct es.Core.Eval.Incr.op_hits es.Core.Eval.Incr.op_misses)
            (pct es.Core.Eval.Incr.rom_reuses es.Core.Eval.Incr.rom_builds)
            (pct es.Core.Eval.Incr.spec_reuses es.Core.Eval.Incr.spec_evals)
            es.Core.Eval.Incr.resyncs es.Core.Eval.Incr.resync_mismatches;
          if es.Core.Eval.Incr.probes > 0 then
            Printf.printf "probe: %d screens, %d jig refits\n" es.Core.Eval.Incr.probes
              es.Core.Eval.Incr.probe_rom_builds
      | Some _ | None -> ());
      (match dump with
      | Some path ->
          let oc = open_out path in
          output_string oc (Core.Report.sized_netlist p best.Core.Oblx.final);
          close_out oc;
          Printf.printf "sized netlist written to %s\n" path
      | None -> ());
      0

let synth_cmd =
  let run file seed moves runs jobs early_stop no_incremental probe_batch no_verify dump trace
      trace_level =
    synth_source file (read_file file) seed moves runs jobs early_stop no_incremental
      probe_batch no_verify dump trace trace_level
  in
  Cmd.v (Cmd.info "synth" ~doc:"Synthesize a problem with OBLX")
    Term.(
      const run $ file_arg $ seed_arg $ moves_arg $ runs_arg $ jobs_arg $ early_stop_arg
      $ no_incremental_arg $ probe_batch_arg $ no_verify_arg $ netlist_arg $ trace_arg
      $ trace_level_arg)

let bench_cmd =
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME" ~doc:"Benchmark name")
  in
  let run name seed moves runs jobs early_stop no_incremental probe_batch no_verify dump trace
      trace_level =
    match Suite.Ckts.find name with
    | None ->
        Printf.eprintf "unknown benchmark %s; known: %s\n" name
          (String.concat ", " (List.map (fun (e : Suite.Ckts.entry) -> e.name) Suite.Ckts.all));
        1
    | Some e ->
        synth_source e.name e.source seed moves runs jobs early_stop no_incremental probe_batch
          no_verify dump trace trace_level
  in
  Cmd.v (Cmd.info "bench" ~doc:"Run a built-in benchmark circuit")
    Term.(
      const run $ name_arg $ seed_arg $ moves_arg $ runs_arg $ jobs_arg $ early_stop_arg
      $ no_incremental_arg $ probe_batch_arg $ no_verify_arg $ netlist_arg $ trace_arg
      $ trace_level_arg)

(* Problem source for replay/submit: a built-in benchmark name or a file
   path. An unreadable file is an [Error], not an escaping [Sys_error]. *)
let problem_source name =
  match Suite.Ckts.find name with
  | Some e -> Ok e.Suite.Ckts.source
  | None ->
      if Sys.file_exists name then (
        match read_file name with
        | src -> Ok src
        | exception Sys_error e -> Error (Printf.sprintf "astrx: cannot read %s: %s" name e))
      else Error (Printf.sprintf "astrx: %S is neither a built-in benchmark nor a file" name)

let replay_cmd =
  let problem_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"PROBLEM" ~doc:"Built-in benchmark name or problem file")
  in
  (* Deliberately a plain string, not [Arg.file]: a missing trace must land
     in the [Obs.Replay.read_file] error path below (clear message, exit 1),
     not cmdliner's usage error. *)
  let trace_file_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"TRACE" ~doc:"JSONL trace file")
  in
  let tol_arg =
    Arg.(
      value
      & opt float 1e-6
      & info [ "tol" ] ~doc:"Relative cost tolerance for a replayed state to count as matching")
  in
  let run name trace_file tol =
    match problem_source name with
    | Error e ->
        prerr_endline e;
        1
    | Ok src -> begin
        match Core.Compile.compile_source src with
        | Error e ->
            prerr_endline e;
            1
        | Ok p -> begin
            match Obs.Replay.read_file trace_file with
            | Error e ->
                Printf.eprintf "replay: cannot read %s: %s\n" trace_file e;
                1
            | Ok events -> begin
                match Core.Oblx.replay ~tol p events with
                | Ok stats ->
                    Printf.printf
                      "replay OK: %d events, %d restart(s), %d accepted states re-evaluated, \
                       max rel err %.3g\n"
                      stats.Obs.Replay.rs_events stats.rs_restarts stats.rs_checked
                      stats.rs_max_rel_err;
                    if stats.rs_checked = 0 then begin
                      Printf.eprintf
                        "replay: trace has no replayable states — record with --trace-level \
                         moves\n";
                      1
                    end
                    else 0
                | Error (mismatches, stats) ->
                    Printf.eprintf "replay FAILED: %d of %d re-evaluations mismatch\n"
                      (List.length mismatches) stats.Obs.Replay.rs_checked;
                    List.iteri
                      (fun i m ->
                        if i < 10 then
                          Format.eprintf "  %a@." Obs.Replay.pp_mismatch m)
                      mismatches;
                    1
              end
          end
      end
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-evaluate every accepted state of a recorded trace against the compiled cost \
          function (deterministic-replay regression check)")
    Term.(const run $ problem_arg $ trace_file_arg $ tol_arg)

let corners_cmd =
  let run file seed moves =
    let src = read_file file in
    match Core.Compile.compile_source src with
    | Error e ->
        prerr_endline e;
        1
    | Ok p ->
        let r = Core.Oblx.synthesize ~seed ?moves p in
        Printf.printf "nominal synthesis: cost %.4g\n" r.Core.Oblx.best_cost;
        let sizing = Core.Report.sizes p r.final in
        (match Core.Corners.analyze ~source:src ~sizing () with
        | Error e ->
            prerr_endline e;
            1
        | Ok results ->
            Printf.printf "%-10s" "spec";
            List.iter (fun sc -> Printf.printf " %12s" sc.Core.Corners.sc_corner) results;
            Printf.printf " %12s\n" "worst-case";
            let worst = Core.Corners.worst_case p results in
            List.iter
              (fun (s : Core.Problem.spec) ->
                let name = s.Core.Problem.spec_name in
                Printf.printf "%-10s" name;
                List.iter
                  (fun sc ->
                    match List.assoc name sc.Core.Corners.sc_values with
                    | Ok v -> Printf.printf " %12s" (Core.Report.eng v)
                    | Error _ -> Printf.printf " %12s" "fail")
                  results;
                (match List.assoc name worst with
                | Ok v -> Printf.printf " %12s\n" (Core.Report.eng v)
                | Error _ -> Printf.printf " %12s\n" "fail"))
              p.Core.Problem.specs;
            0)
  in
  Cmd.v
    (Cmd.info "corners" ~doc:"Synthesize, then re-verify the design at process corners")
    Term.(const run $ file_arg $ seed_arg $ moves_arg)

let sens_cmd =
  let run file seed moves =
    match Core.Compile.compile_source (read_file file) with
    | Error e ->
        prerr_endline e;
        1
    | Ok p ->
        let r = Core.Oblx.synthesize ~seed ?moves p in
        Printf.printf "synthesis: cost %.4g\n" r.Core.Oblx.best_cost;
        let s = Core.Sensitivity.compute p r.Core.Oblx.final in
        Core.Sensitivity.pp Format.std_formatter s;
        Format.pp_print_flush Format.std_formatter ();
        0
  in
  Cmd.v
    (Cmd.info "sens" ~doc:"Synthesize, then print normalized spec/variable sensitivities")
    Term.(const run $ file_arg $ seed_arg $ moves_arg)

let list_cmd =
  let run () =
    List.iter (fun (e : Suite.Ckts.entry) -> print_endline e.name) Suite.Ckts.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List built-in benchmarks") Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* Daemon client (oblxd; docs/SERVER.md)                               *)
(* ------------------------------------------------------------------ *)

module Json = Obs.Json

let socket_arg =
  Arg.(
    value
    & opt string "oblxd.sock"
    & info [ "socket" ] ~docv:"ENDPOINT"
        ~doc:
          "oblxd endpoint: a Unix-socket path (or unix:PATH), or tcp:HOST:PORT / \
           HOST:PORT for a TCP daemon")

let auth_token_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "auth-token-file" ] ~docv:"FILE"
        ~doc:"Present the shared secret (first line of FILE) when connecting")

(* Read the token eagerly so a bad path fails before we dial. *)
let auth_of_file = function
  | None -> Ok None
  | Some file -> begin
      match open_in file with
      | ic ->
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () ->
              match input_line ic with
              | line -> Ok (Some (String.trim line))
              | exception End_of_file -> Error (file ^ ": empty token file"))
      | exception Sys_error e -> Error e
    end

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Print the raw JSON response on one line")

let id_arg = Arg.(required & pos 0 (some int) None & info [] ~docv:"ID" ~doc:"Job id")

let client_fail e =
  prerr_endline ("astrx: " ^ e);
  1

let jstr job k = match Json.mem_opt k job with Some (Json.Str s) -> Some s | _ -> None
let jnum job k = match Json.mem_opt k job with Some (Json.Num v) -> Some v | _ -> None

(* One job record, as a short human-readable block. *)
let print_job job =
  let field k render = match render k with Some s -> s | None -> "-" in
  let str k = field k (jstr job) in
  let num fmt k = field k (fun k -> Option.map (Printf.sprintf fmt) (jnum job k)) in
  Printf.printf "job %s (%s): %s\n" (num "%.0f" "id") (str "name") (str "state");
  Printf.printf "  seed %s, runs %s, priority %s, cache %s\n" (num "%.0f" "seed")
    (num "%.0f" "runs") (num "%.0f" "priority") (str "cache");
  Printf.printf "  wait %s s, run %s s\n" (num "%.3f" "wait_s") (num "%.3f" "run_s");
  (match jstr job "cut_reason" with
  | Some r -> Printf.printf "  cut short: %s\n" r
  | None -> ());
  (match jstr job "error" with Some e -> Printf.printf "  error: %s\n" e | None -> ());
  match jnum job "best_cost" with
  | Some c ->
      Printf.printf "  best cost %.4g in %s moves (%s evals)\n" c (num "%.0f" "moves")
        (num "%.0f" "evals")
  | None -> ()

let print_response ~json render = function
  | Error e -> client_fail e
  | Ok j ->
      if json then print_endline (Json.to_string j) else render j;
      0

let with_auth token_file f =
  match auth_of_file token_file with Error e -> client_fail e | Ok auth -> f auth

let submit_cmd =
  let priority_arg =
    Arg.(
      value
      & opt int 0
      & info [ "priority" ] ~docv:"N" ~doc:"Higher runs first among queued jobs (default 0)")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Latency bound from submission (queue wait counts); an overrunning job is cut \
             with cut_reason \"deadline\"")
  in
  let events_arg =
    Arg.(
      value
      & flag
      & info [ "events" ]
          ~doc:"Keep the job's recent stage-level telemetry in its result record")
  in
  let wait_flag = Arg.(value & flag & info [ "wait" ] ~doc:"Block until the job finishes") in
  let problem_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"PROBLEM" ~doc:"Built-in benchmark name or problem file")
  in
  let run socket token_file name seed moves runs priority deadline events wait json =
    match problem_source name with
    | Error e ->
        prerr_endline e;
        1
    | Ok src ->
        with_auth token_file (fun auth ->
            let spec =
              {
                Serve.Proto.sb_name = name;
                sb_source = src;
                sb_seed = seed;
                sb_moves = moves;
                sb_runs = runs;
                sb_priority = priority;
                sb_deadline_s = deadline;
                sb_trace = events;
                sb_shard = None;
                sb_sweep = [];
                sb_warm = [];
                sb_spec_overrides = [];
              }
            in
            match Serve.Client.submit ~socket ?auth spec with
            | Error e -> client_fail e
            | Ok id ->
                if not wait then begin
                  if json then
                    print_endline
                      (Json.to_string (Json.Obj [ ("id", Json.Num (float_of_int id)) ]))
                  else Printf.printf "job %d queued\n" id;
                  0
                end
                else print_response ~json print_job (Serve.Client.wait ~socket ?auth id))
  in
  Cmd.v
    (Cmd.info "submit" ~doc:"Queue a synthesis job on a running oblxd daemon")
    Term.(
      const run $ socket_arg $ auth_token_file_arg $ problem_arg $ seed_arg $ moves_arg
      $ runs_arg $ priority_arg $ deadline_arg $ events_arg $ wait_flag $ json_arg)

(* ------------------------------------------------------------------ *)
(* Sweep: one netlist, a grid of corner/spec variants                  *)
(* ------------------------------------------------------------------ *)

let problem_arg_sweep =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"PROBLEM" ~doc:"Built-in benchmark name or problem file")

(* The per-variant verdict table a finished sweep job carries. The
   compile counters are recomputed from the rows themselves (misses =
   distinct (canon, corner) keys compiled, hits = variants served from
   cache), so the report is the same whether the sweep ran in-process or
   on a remote daemon. *)
let print_sweep job =
  (match Json.mem_opt "sweep" job with
  | Some (Json.Arr rows) ->
      Printf.printf "%-28s %-14s %-6s %12s %-4s %s\n" "variant" "corner" "cache"
        "best-cost" "ok" "note";
      let hits = ref 0 and misses = ref 0 in
      List.iter
        (fun r ->
          let s k = match Json.mem_opt k r with Some (Json.Str s) -> s | _ -> "-" in
          (match Json.mem_opt "cache" r with
          | Some (Json.Str "hit") -> incr hits
          | Some (Json.Str "miss") -> incr misses
          | _ -> ());
          let corner =
            match Json.mem_opt "corner" r with
            | Some (Json.Str c) -> c
            | _ -> "nominal"
          in
          let cost =
            match Json.mem_opt "best_cost" r with
            | Some (Json.Num v) -> Printf.sprintf "%.4g" v
            | _ -> "-"
          in
          let ok =
            match Json.mem_opt "ok" r with
            | Some (Json.Bool true) -> "yes"
            | Some (Json.Bool false) -> "no"
            | _ -> "-"
          in
          let note =
            match Json.mem_opt "error" r with
            | Some (Json.Str e) -> e
            | _ -> (
                match Json.mem_opt "cut_reason" r with
                | Some (Json.Str c) -> "cut: " ^ c
                | _ -> "")
          in
          Printf.printf "%-28s %-14s %-6s %12s %-4s %s\n" (s "variant") corner
            (s "cache") cost ok note)
        rows;
      Printf.printf "compiles: %d for %d variants (%d cache hits)\n" !misses
        (List.length rows) !hits
  | _ -> print_endline "no sweep table on the job record");
  match jstr job "error" with Some e -> Printf.printf "error: %s\n" e | None -> ()

let sweep_cmd =
  let corners_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corners" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated device corners from the standard table (\"nominal\" = no \
             skew); each corner compiles once, shared by all its spec variants. Default: \
             nominal only")
  in
  let vary_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "vary" ] ~docv:"SPEC:GOOD:BAD"
          ~doc:
            "Add a spec variant overriding one specification's good/bad targets \
             (repeatable); applied per corner without recompiling")
  in
  let socket_opt_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"ENDPOINT"
          ~doc:"Run the sweep on a running oblxd daemon instead of in-process")
  in
  let parse_vary s =
    (* Targets take spice suffixes (80meg, 0.5m) like every other number
       in the language. *)
    match String.split_on_char ':' s with
    | [ name; good; bad ] -> begin
        match (Netlist.Units.parse good, Netlist.Units.parse bad) with
        | Ok g, Ok b when name <> "" -> Ok (name, g, b)
        | _ -> Error (Printf.sprintf "bad --vary %S: expected SPEC:GOOD:BAD" s)
      end
    | _ -> Error (Printf.sprintf "bad --vary %S: expected SPEC:GOOD:BAD" s)
  in
  let build_variants corners varies =
    let corner_list =
      match corners with
      | None -> [ None ]
      | Some s ->
          String.split_on_char ',' s
          |> List.map String.trim
          |> List.filter (fun c -> c <> "")
          |> List.map (fun c -> if c = "nominal" then None else Some c)
    in
    let specsets =
      ("base", [])
      :: List.map
           (fun (n, g, b) -> (Printf.sprintf "%s=%g:%g" n g b, [ (n, g, b) ]))
           varies
    in
    List.concat_map
      (fun c ->
        List.map
          (fun (sn, ov) ->
            {
              Serve.Proto.vr_name =
                (match c with None -> sn | Some cn -> cn ^ "/" ^ sn);
              vr_corner = c;
              vr_specs = ov;
            })
          specsets)
      corner_list
  in
  let run socket token_file name seed moves runs corners varies json =
    match problem_source name with
    | Error e ->
        prerr_endline e;
        1
    | Ok src -> begin
        let varies =
          List.fold_left
            (fun acc s ->
              match (acc, parse_vary s) with
              | Error e, _ -> Error e
              | Ok vs, Ok v -> Ok (vs @ [ v ])
              | Ok _, Error e -> Error e)
            (Ok []) varies
        in
        match varies with
        | Error e ->
            prerr_endline ("astrx: " ^ e);
            1
        | Ok varies -> begin
            let bad_corner =
              match corners with
              | None -> None
              | Some s ->
                  String.split_on_char ',' s
                  |> List.map String.trim
                  |> List.find_opt (fun c ->
                         c <> "" && c <> "nominal"
                         && Option.is_none (Devices.Registry.find_corner c))
            in
            match bad_corner with
            | Some c ->
                prerr_endline
                  (Printf.sprintf "astrx: unknown corner %S (astrx sweep uses the standard \
                                   corner table)" c);
                1
            | None -> begin
                let spec =
                  {
                    Serve.Proto.sb_name = name;
                    sb_source = src;
                    sb_seed = seed;
                    sb_moves = moves;
                    sb_runs = runs;
                    sb_priority = 0;
                    sb_deadline_s = None;
                    sb_trace = false;
                    sb_shard = None;
                    sb_sweep = build_variants corners varies;
                    sb_warm = [];
                    sb_spec_overrides = [];
                  }
                in
                match socket with
                | Some socket ->
                    with_auth token_file (fun auth ->
                        match Serve.Client.sweep ~socket ?auth spec with
                        | Error e -> client_fail e
                        | Ok id ->
                            print_response ~json print_sweep
                              (Serve.Client.wait ~socket ?auth id))
                | None ->
                    (* In-process: a private single-worker pool, so the CLI
                       and the daemon execute the identical sweep path —
                       same cache keying, same verdict table. *)
                    let pool =
                      Serve.Pool.create
                        { Serve.Pool.default_config with Serve.Pool.workers = 1 }
                    in
                    Fun.protect
                      ~finally:(fun () -> Serve.Pool.shutdown pool)
                      (fun () ->
                        match Serve.Pool.submit pool spec with
                        | Error e -> client_fail e
                        | Ok id ->
                            let rec wait () =
                              match Serve.Pool.status_json pool id with
                              | Error e -> client_fail e
                              | Ok j -> begin
                                  match Json.mem_opt "state" j with
                                  | Some (Json.Str ("queued" | "running")) ->
                                      Unix.sleepf 0.02;
                                      wait ()
                                  | _ ->
                                      print_response ~json print_sweep
                                        (Serve.Pool.result_json pool id)
                                end
                            in
                            wait ())
              end
          end
      end
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Synthesize one problem across a grid of corner/spec variants, compiling once \
          per distinct (canon, corner) key")
    Term.(
      const run $ socket_opt_arg $ auth_token_file_arg $ problem_arg_sweep $ seed_arg
      $ moves_arg $ runs_arg $ corners_arg $ vary_arg $ json_arg)

let status_cmd =
  let run socket token_file id json =
    with_auth token_file (fun auth ->
        print_response ~json print_job (Serve.Client.status ~socket ?auth id))
  in
  Cmd.v
    (Cmd.info "status" ~doc:"Show a daemon job's state and queue position")
    Term.(const run $ socket_arg $ auth_token_file_arg $ id_arg $ json_arg)

let result_cmd =
  let run socket token_file id json =
    with_auth token_file (fun auth ->
        print_response ~json print_job (Serve.Client.result ~socket ?auth id))
  in
  Cmd.v
    (Cmd.info "result" ~doc:"Fetch a daemon job's full result record")
    Term.(const run $ socket_arg $ auth_token_file_arg $ id_arg $ json_arg)

let cancel_cmd =
  let run socket token_file id =
    with_auth token_file (fun auth ->
        match Serve.Client.cancel ~socket ?auth id with
        | Error e -> client_fail e
        | Ok () ->
            Printf.printf "job %d cancelled\n" id;
            0)
  in
  Cmd.v
    (Cmd.info "cancel" ~doc:"Cancel a queued or running daemon job")
    Term.(const run $ socket_arg $ auth_token_file_arg $ id_arg)

let resynthesize_cmd =
  let set_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "set" ] ~docv:"SPEC=GOOD[:BAD]"
          ~doc:
            "Re-target one specification (repeatable). Values take spice suffixes \
             (80meg, 0.5m); with BAD omitted the parent job's bad target is kept")
  in
  let runs_opt_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "runs" ] ~docv:"N"
          ~doc:"Restart budget (default: half the parent's, minimum 1)")
  in
  let moves_opt_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "moves" ] ~docv:"N"
          ~doc:"Move budget per restart (default: half the parent's explicit budget)")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS" ~doc:"Latency bound from submission")
  in
  let events_arg =
    Arg.(
      value
      & flag
      & info [ "events" ]
          ~doc:"Keep the job's recent stage-level telemetry in its result record")
  in
  let wait_flag = Arg.(value & flag & info [ "wait" ] ~doc:"Block until the job finishes") in
  let parse_set s =
    let bad_set = Error (Printf.sprintf "bad --set %S: expected SPEC=GOOD[:BAD]" s) in
    match String.index_opt s '=' with
    | None -> bad_set
    | Some i -> begin
        let name = String.sub s 0 i in
        let targets = String.sub s (i + 1) (String.length s - i - 1) in
        if name = "" then bad_set
        else
          match String.split_on_char ':' targets with
          | [ good ] -> begin
              match Netlist.Units.parse good with
              | Ok g -> Ok (name, g, None)
              | Error _ -> bad_set
            end
          | [ good; bad ] -> begin
              match (Netlist.Units.parse good, Netlist.Units.parse bad) with
              | Ok g, Ok b -> Ok (name, g, Some b)
              | _ -> bad_set
            end
          | _ -> bad_set
      end
  in
  let run socket token_file id sets runs moves deadline events wait json =
    let sets =
      List.fold_left
        (fun acc s ->
          match (acc, parse_set s) with
          | (Error _ as e), _ | _, (Error _ as e) -> e
          | Ok vs, Ok v -> Ok (vs @ [ v ]))
        (Ok []) sets
    in
    match sets with
    | Error e ->
        prerr_endline ("astrx: " ^ e);
        1
    | Ok specs ->
        with_auth token_file (fun auth ->
            let r =
              {
                Serve.Proto.rz_id = id;
                rz_specs = specs;
                rz_runs = runs;
                rz_moves = moves;
                rz_deadline_s = deadline;
                rz_trace = events;
              }
            in
            match Serve.Client.resynthesize ~socket ?auth r with
            | Error e -> client_fail e
            | Ok new_id ->
                if not wait then begin
                  if json then
                    print_endline
                      (Json.to_string (Json.Obj [ ("id", Json.Num (float_of_int new_id)) ]))
                  else Printf.printf "job %d queued (warm rerun of job %d)\n" new_id id;
                  0
                end
                else print_response ~json print_job (Serve.Client.wait ~socket ?auth new_id))
  in
  Cmd.v
    (Cmd.info "resynthesize"
       ~doc:
         "Rerun a finished daemon job with tweaked spec targets: cached compile, \
          warm-started from its recorded winner, on a reduced schedule")
    Term.(
      const run $ socket_arg $ auth_token_file_arg $ id_arg $ set_arg $ runs_opt_arg
      $ moves_opt_arg $ deadline_arg $ events_arg $ wait_flag $ json_arg)

let corpus_cmd =
  let shape_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SHAPE" ~doc:"Shape hash (from $(b,astrx hash))")
  in
  let run socket token_file shape json =
    with_auth token_file (fun auth ->
        match Serve.Client.corpus_lookup ~socket ?auth shape with
        | Error e -> client_fail e
        | Ok entries ->
            if json then
              print_endline
                (Json.to_string (Json.Arr (List.map Serve.Corpus.entry_to_json entries)))
            else begin
              List.iter
                (fun e ->
                  Printf.printf "job %d (%s): cost %.6g, %d variable%s%s\n"
                    e.Serve.Corpus.en_job e.Serve.Corpus.en_name e.Serve.Corpus.en_cost
                    (Array.length e.Serve.Corpus.en_values)
                    (if Array.length e.Serve.Corpus.en_values = 1 then "" else "s")
                    (if e.Serve.Corpus.en_probs = [||] then "" else ", with move priors"))
                entries;
              Printf.printf "%d corpus entr%s for shape %s\n" (List.length entries)
                (if List.length entries = 1 then "y" else "ies")
                shape
            end;
            0)
  in
  Cmd.v
    (Cmd.info "corpus" ~doc:"List a daemon's winner-corpus entries for a circuit shape")
    Term.(const run $ socket_arg $ auth_token_file_arg $ shape_arg $ json_arg)

let hash_cmd =
  let problem_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"PROBLEM" ~doc:"Built-in benchmark name or problem file")
  in
  let run name json =
    match problem_source name with
    | Error e ->
        prerr_endline e;
        1
    | Ok src -> begin
        match Netlist.Parser.parse_problem src with
        | exception Netlist.Parser.Error (line, msg) ->
            Printf.eprintf "astrx: %s: line %d: %s\n" name line msg;
            1
        | ast ->
            let canon = Netlist.Canon.problem_hash ast in
            let shape = Netlist.Canon.problem_shape_hash ast in
            if json then
              print_endline
                (Json.to_string
                   (Json.Obj [ ("canon", Json.Str canon); ("shape", Json.Str shape) ]))
            else Printf.printf "canon %s\nshape %s\n" canon shape;
            0
      end
  in
  Cmd.v
    (Cmd.info "hash"
       ~doc:
         "Print a problem's canonical hash (the compile-cache key) and its shape hash \
          (the winner-corpus key, spec targets canonicalized away)")
    Term.(const run $ problem_arg $ json_arg)

let stats_cmd =
  let run socket token_file json =
    let render j =
      let sub k = match Json.mem_opt k j with Some o -> o | None -> Json.Obj [] in
      let jobs = sub "jobs" and cache = sub "cache" in
      let n o k = match jnum o k with Some v -> Printf.sprintf "%.0f" v | None -> "-" in
      Printf.printf "uptime %s s, %s worker(s), queue %s/%s\n" (n j "uptime_s")
        (n j "workers") (n j "queue_depth") (n j "queue_capacity");
      Printf.printf "jobs: %s total (%s queued, %s running, %s done, %s failed, %s \
                     cancelled, %s rejected)\n"
        (n jobs "total") (n jobs "queued") (n jobs "running") (n jobs "done")
        (n jobs "failed") (n jobs "cancelled") (n jobs "rejected");
      (match jnum j "restored_jobs" with
      | Some r when r > 0.0 -> Printf.printf "  %.0f restored from the job log at startup\n" r
      | Some _ | None -> ());
      (match Json.mem_opt "connections" j with
      | Some conns ->
          Printf.printf "connections: %s active (max %s), %s accepted, %s rejected\n"
            (n conns "active") (n conns "max") (n conns "total") (n conns "rejected")
      | None -> ());
      Printf.printf "cache: %s hit / %s miss (%s entries, %s evictions)%s\n" (n cache "hits")
        (n cache "misses") (n cache "entries") (n cache "evictions")
        (match jnum cache "hit_rate" with
        | Some r -> Printf.sprintf ", hit rate %.0f%%" (100.0 *. r)
        | None -> "");
      (match (Json.mem_opt "journal" j, Json.mem_opt "corpus" j) with
      | Some (Json.Obj _ as jr), Some (Json.Obj _ as c) ->
          Printf.printf
            "journal: %s bytes, %s rotation(s), %s rejected line(s); corpus: %s entries, %s \
             replayed, %s rejected line(s)\n"
            (n jr "bytes") (n jr "rotations") (n jr "rejected") (n c "entries") (n c "replayed")
            (n c "rejected")
      | _ -> ());
      (match Json.mem_opt "evals" j with
      | Some (Json.Obj _ as ev) ->
          let pct a b =
            match (jnum ev a, jnum ev b) with
            | Some x, Some y when x +. y > 0.0 -> Printf.sprintf "%.0f%%" (100.0 *. x /. (x +. y))
            | _ -> "-"
          in
          Printf.printf
            "evals: %s incremental / %s full; op cache %s hit, ROM reuse %s, spec reuse %s, %s \
             resyncs (%s mismatches)\n"
            (n ev "incremental") (n ev "full") (pct "op_hits" "op_misses")
            (pct "rom_reuses" "rom_builds") (pct "spec_reuses" "spec_evals") (n ev "resyncs")
            (n ev "resync_mismatches");
          (match jnum ev "probes" with
          | Some p when p > 0.0 ->
              Printf.printf "probe: %s screens, %s jig refits\n" (n ev "probes")
                (n ev "probe_rom_builds")
          | Some _ | None -> ())
      | Some _ | None -> ());
      match Json.mem_opt "workers_detail" j with
      | Some (Json.Arr ws) ->
          List.iter
            (fun w ->
              Printf.printf "  worker %s: %s job(s), %s moves%s\n" (n w "worker") (n w "jobs")
                (n w "moves")
                (match jnum w "moves_per_s" with
                | Some r -> Printf.sprintf " (%.0f moves/s)" r
                | None -> ""))
            ws
      | Some _ | None -> ()
    in
    with_auth token_file (fun auth ->
        print_response ~json render (Serve.Client.stats ~socket ?auth ()))
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Show daemon queue, cache, and worker statistics")
    Term.(const run $ socket_arg $ auth_token_file_arg $ json_arg)

let shutdown_cmd =
  let run socket token_file =
    with_auth token_file (fun auth ->
        match Serve.Client.shutdown ~socket ?auth () with
        | Error e -> client_fail e
        | Ok () ->
            print_endline "daemon shutting down";
            0)
  in
  Cmd.v
    (Cmd.info "shutdown" ~doc:"Ask the daemon to drain and exit")
    Term.(const run $ socket_arg $ auth_token_file_arg)

let () =
  let doc = "ASTRX/OBLX analog circuit synthesis" in
  let info = Cmd.info "astrx" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            compile_cmd;
            synth_cmd;
            bench_cmd;
            replay_cmd;
            corners_cmd;
            sens_cmd;
            list_cmd;
            hash_cmd;
            submit_cmd;
            sweep_cmd;
            resynthesize_cmd;
            status_cmd;
            result_cmd;
            cancel_cmd;
            corpus_cmd;
            stats_cmd;
            shutdown_cmd;
          ]))
