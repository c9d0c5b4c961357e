(* Domain-parallel invariants of the arena memory model (docs/PARALLEL.md):
   the multi-start winner is bit-identical for every jobs value, the
   restart-tagged events concurrent domains emit into one sink
   demultiplex to the exact sequential streams, and a per-domain
   evaluator arena reused across restarts (via Eval.Incr.reset) behaves
   like a fresh one. *)

let compile name =
  let e = Option.get (Suite.Ckts.find name) in
  match Core.Compile.compile_source e.Suite.Ckts.source with
  | Ok p -> p
  | Error msg -> Alcotest.failf "%s: %s" name msg

let feq_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_bits label a b =
  if not (feq_bits a b) then Alcotest.failf "%s differs: %h vs %h" label a b

let check_state label (a : Core.State.t) (b : Core.State.t) =
  Alcotest.(check int)
    (label ^ ": arity")
    (Array.length a.Core.State.values)
    (Array.length b.Core.State.values);
  Array.iteri
    (fun i v -> check_bits (Printf.sprintf "%s: values.(%d)" label i) v b.Core.State.values.(i))
    a.Core.State.values;
  Alcotest.(check bool) (label ^ ": grid index") true (a.Core.State.grid_index = b.Core.State.grid_index)

let check_predicted label a b =
  List.iter2
    (fun (na, va) (nb, vb) ->
      Alcotest.(check string) (label ^ ": spec name") na nb;
      match (va, vb) with
      | None, None -> ()
      | Some x, Some y -> check_bits (label ^ ": " ^ na) x y
      | _ -> Alcotest.failf "%s: %s measurability differs" label na)
    a b

(* --- Winner bit-identity across jobs counts, arena layout active. --- *)

let test_winner_jobs_invariant () =
  let p = compile "simple-ota" in
  let run jobs = Core.Oblx.best_of ~seed:11 ~moves:700 ~jobs ~runs:4 p in
  let best1, all1 = run 1 in
  let best8, all8 = run 8 in
  check_bits "winner best_cost" best1.Core.Oblx.best_cost best8.Core.Oblx.best_cost;
  check_state "winner state" best1.Core.Oblx.final best8.Core.Oblx.final;
  check_predicted "winner predictions" best1.Core.Oblx.predicted best8.Core.Oblx.predicted;
  Alcotest.(check int) "all runs returned" (List.length all1) (List.length all8);
  List.iteri
    (fun k ((r1 : Core.Oblx.result), (r8 : Core.Oblx.result)) ->
      check_bits (Printf.sprintf "run %d best_cost" k) r1.Core.Oblx.best_cost
        r8.Core.Oblx.best_cost;
      Alcotest.(check int) (Printf.sprintf "run %d moves" k) r1.Core.Oblx.moves r8.Core.Oblx.moves;
      check_state (Printf.sprintf "run %d state" k) r1.Core.Oblx.final r8.Core.Oblx.final)
    (List.combine all1 all8)

(* --- Each restart keeps its own event stream, whatever the job count. --- *)

let collect_events p ~jobs ~runs ~seed ~moves =
  let ring = Obs.Sink.Ring.create ~capacity:400_000 in
  let obs = Obs.Trace.make ~level:Obs.Event.Moves [ Obs.Sink.Ring.sink ring ] in
  let _ = Core.Oblx.best_of ~seed ~moves ~jobs ~obs ~runs p in
  Alcotest.(check int) "nothing dropped" 0 (Obs.Sink.Ring.dropped ring);
  Obs.Sink.Ring.contents ring

let per_restart evs k = List.filter (fun (e : Obs.Event.t) -> e.Obs.Event.restart = k) evs

let check_same_streams label runs a b =
  (* Equal totals + identical per-restart order = same multiset, same
     per-restart sequences; only the interleaving may differ. *)
  Alcotest.(check int) (label ^ ": same event total") (List.length a) (List.length b);
  for k = 0 to runs - 1 do
    let xs = per_restart a k and ys = per_restart b k in
    Alcotest.(check int) (Printf.sprintf "%s: restart %d count" label k) (List.length xs)
      (List.length ys);
    List.iter2
      (fun x y ->
        match Obs.Event.diff ~tol:0.0 x y with
        | None -> ()
        | Some d -> Alcotest.failf "%s: restart %d stream differs: %s" label k d)
      xs ys
  done

let test_restart_streams () =
  let p = compile "simple-ota" in
  let runs = 3 in
  let collect jobs = collect_events p ~jobs ~runs ~seed:9 ~moves:600 in
  let evs1 = collect 1 in
  let evs4 = collect 4 in
  let evs4' = collect 4 in
  (* Concurrent emission into one shared sink loses nothing relative to
     sequential... *)
  check_same_streams "jobs=1 vs jobs=4" runs evs1 evs4;
  (* ...and two parallel runs agree with each other, event for event. *)
  check_same_streams "jobs=4 vs jobs=4 (rerun)" runs evs4 evs4'

(* --- Arena reuse: a reset session is a fresh session. --- *)

let test_session_reuse_across_restarts () =
  let p = compile "simple-ota" in
  let session = Core.Eval.Incr.create p in
  let reused seed = Core.Oblx.synthesize ~seed ~moves:500 ~session p in
  let fresh seed = Core.Oblx.synthesize ~seed ~moves:500 p in
  (* Two sequential restarts through ONE session: the second must not see
     any state leaked from the first. *)
  let a1 = reused 3 in
  let a2 = reused 5 in
  let f1 = fresh 3 in
  let f2 = fresh 5 in
  List.iter
    (fun (label, (a : Core.Oblx.result), (f : Core.Oblx.result)) ->
      check_bits (label ^ ": best_cost") f.Core.Oblx.best_cost a.Core.Oblx.best_cost;
      Alcotest.(check int) (label ^ ": moves") f.Core.Oblx.moves a.Core.Oblx.moves;
      Alcotest.(check int) (label ^ ": accepted") f.Core.Oblx.accepted a.Core.Oblx.accepted;
      check_state (label ^ ": final state") f.Core.Oblx.final a.Core.Oblx.final;
      check_predicted (label ^ ": predictions") f.Core.Oblx.predicted a.Core.Oblx.predicted)
    [ ("restart 1", a1, f1); ("restart 2", a2, f2) ]

let test_reset_equals_fresh () =
  let p = compile "two-stage" in
  let w = Core.Weights.create () in
  let st = Core.State.snapshot p.Core.Problem.state0 in
  let dirty_then_reset =
    let ss = Core.Eval.Incr.create p in
    (* drive the session somewhere else first *)
    let st' = Core.State.snapshot st in
    st'.Core.State.values.(0) <- Core.State.clamp st' 0 (st'.Core.State.values.(0) *. 1.5);
    ignore (Core.Eval.Incr.cost ss w st');
    ignore (Core.Eval.Incr.cost ss w st);
    Core.Eval.Incr.reset ss;
    ss
  in
  let fresh = Core.Eval.Incr.create p in
  let a = Core.Eval.Incr.cost dirty_then_reset w st in
  let b = Core.Eval.Incr.cost fresh w st in
  check_bits "total" b.Core.Eval.total a.Core.Eval.total;
  check_bits "c_obj" b.Core.Eval.c_obj a.Core.Eval.c_obj;
  check_bits "c_perf" b.Core.Eval.c_perf a.Core.Eval.c_perf;
  check_bits "c_dev" b.Core.Eval.c_dev a.Core.Eval.c_dev;
  check_bits "c_dc" b.Core.Eval.c_dc a.Core.Eval.c_dc;
  (* counters restart from zero, like a fresh session's *)
  let sa = Core.Eval.Incr.stats dirty_then_reset and sb = Core.Eval.Incr.stats fresh in
  Alcotest.(check int) "full evals" sb.Core.Eval.Incr.full_evals sa.Core.Eval.Incr.full_evals;
  Alcotest.(check int) "incr evals" sb.Core.Eval.Incr.incr_evals sa.Core.Eval.Incr.incr_evals

(* --- The perf callback accounts for every domain and restart. --- *)

let test_perf_report () =
  let p = compile "simple-ota" in
  let report = ref None in
  let _ = Core.Oblx.best_of ~seed:2 ~moves:400 ~jobs:2 ~runs:3 ~perf:(fun r -> report := Some r) p in
  match !report with
  | None -> Alcotest.fail "perf callback never fired"
  | Some r ->
      Alcotest.(check int) "jobs" 2 r.Core.Oblx.pr_jobs;
      Alcotest.(check int) "runs" 3 r.Core.Oblx.pr_runs;
      Alcotest.(check int) "one report per domain" 2 (List.length r.Core.Oblx.pr_domains);
      let claimed =
        List.fold_left
          (fun acc (d : Core.Oblx.domain_report) -> acc + d.Core.Oblx.d_restarts)
          0 r.Core.Oblx.pr_domains
      in
      Alcotest.(check int) "every restart claimed exactly once" 3 claimed;
      List.iter
        (fun (d : Core.Oblx.domain_report) ->
          Alcotest.(check bool) "wall time sane" true (d.Core.Oblx.d_wall_s >= 0.0);
          Alcotest.(check bool) "gc counters sane" true
            (d.Core.Oblx.d_minor_collections >= 0 && d.Core.Oblx.d_minor_words >= 0.0))
        r.Core.Oblx.pr_domains

let () =
  Alcotest.run "parallel"
    [
      ( "bit-identity",
        [
          Alcotest.test_case "winner independent of jobs" `Quick test_winner_jobs_invariant;
          Alcotest.test_case "session reuse across restarts" `Quick
            test_session_reuse_across_restarts;
          Alcotest.test_case "reset equals fresh" `Quick test_reset_equals_fresh;
        ] );
      ( "telemetry",
        [ Alcotest.test_case "per-restart event streams" `Quick test_restart_streams ] );
      ( "perf accounting",
        [ Alcotest.test_case "per-domain report" `Quick test_perf_report ] );
    ]
