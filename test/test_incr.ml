(* Incremental evaluation (Eval.Incr) must be bit-identical to the full
   evaluator. Random 1k-move walks over every synthesizable suite circuit
   compare the complete breakdown after every step — including the
   rejected/undone ones, which exercise the diff-based dirtying both
   ways. *)

let compile name =
  let e = Option.get (Suite.Ckts.find name) in
  match Core.Compile.compile_source e.Suite.Ckts.source with
  | Ok p -> p
  | Error msg -> Alcotest.failf "%s: %s" name msg

let check_bits name what a b =
  if not (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)) then
    Alcotest.failf "%s: %s differs: full %h vs incr %h" name what a b

let check_breakdown name (full : Core.Eval.breakdown) (incr : Core.Eval.breakdown) =
  check_bits name "total" full.Core.Eval.total incr.Core.Eval.total;
  check_bits name "c_obj" full.Core.Eval.c_obj incr.Core.Eval.c_obj;
  check_bits name "c_perf" full.Core.Eval.c_perf incr.Core.Eval.c_perf;
  check_bits name "c_dev" full.Core.Eval.c_dev incr.Core.Eval.c_dev;
  check_bits name "c_dc" full.Core.Eval.c_dc incr.Core.Eval.c_dc

(* A move: perturb one variable (or a couple), sometimes undo the previous
   move, sometimes mutate a weight — everything the annealer does to a
   session between evaluations. *)
let random_walk ?(moves = 1000) ?(resync_every = 128) name =
  let p = compile name in
  let st = Core.State.snapshot p.Core.Problem.state0 in
  let rng = Anneal.Rng.create 42 in
  let w = ref (Core.Weights.create ()) in
  let ss = Core.Eval.Incr.create ~resync_every p in
  let n = Core.State.n_vars st in
  let snapshot = ref (Core.State.snapshot st) in
  for step = 1 to moves do
    (match Anneal.Rng.int rng 10 with
    | 0 ->
        (* undo: jump back to the last snapshot *)
        Core.State.restore ~from:!snapshot st
    | 1 | 2 ->
        (* multi-variable move *)
        snapshot := Core.State.snapshot st;
        for _ = 0 to 1 + Anneal.Rng.int rng 2 do
          let v = Anneal.Rng.int rng n in
          let cur = st.Core.State.values.(v) in
          st.Core.State.values.(v) <-
            Core.State.clamp st v
              (cur +. ((Anneal.Rng.float rng -. 0.5) *. (Float.abs cur +. 0.1)))
        done
    | _ ->
        (* single-variable move, the annealer's common case *)
        snapshot := Core.State.snapshot st;
        let v = Anneal.Rng.int rng n in
        let cur = st.Core.State.values.(v) in
        st.Core.State.values.(v) <-
          Core.State.clamp st v
            (cur +. ((Anneal.Rng.float rng -. 0.5) *. (Float.abs cur +. 0.1))));
    if step mod 97 = 0 then
      (* the annealer re-weights between stages; caches must not care *)
      w :=
        {
          Core.Weights.w_perf = 1.0 +. Anneal.Rng.float rng;
          w_dev = 1.0 +. Anneal.Rng.float rng;
          w_dc = 1.0 +. Anneal.Rng.float rng;
        };
    Core.Eval.Incr.set_class ss (if step mod 2 = 0 then "even" else "odd");
    let incr = Core.Eval.Incr.cost ss !w st in
    let full = Core.Eval.cost p !w st in
    check_breakdown name full incr;
    (* the quick residual path must match the full one bitwise too *)
    if step mod 37 = 0 then begin
      let rq_full = Core.Eval.residuals_quick p st in
      let rq_incr = Core.Eval.Incr.residuals_quick ss st in
      Alcotest.(check int) "residual length" (Array.length rq_full) (Array.length rq_incr);
      Array.iteri (fun i v -> check_bits name (Printf.sprintf "residual %d" i) v rq_incr.(i)) rq_full
    end
  done;
  let s = Core.Eval.Incr.stats ss in
  Alcotest.(check int) (name ^ ": no resync mismatches") 0 s.Core.Eval.Incr.resync_mismatches;
  Alcotest.(check bool)
    (name ^ ": incremental path actually used")
    true
    (s.Core.Eval.Incr.incr_evals > moves / 2);
  Alcotest.(check bool)
    (name ^ ": specs reused")
    true
    (s.Core.Eval.Incr.spec_reuses > 0 || s.Core.Eval.Incr.rom_reuses > 0)

let walk_case name =
  Alcotest.test_case ("walk " ^ name) `Slow (fun () -> random_walk name)

(* Batched screening must probe without perturbing: a fuzz walk that
   screens k candidate perturbations per step with [probe_cost] (the
   approximate reduced-order path) and then confirms the chosen one exactly
   must leave [Incr.cost] bit-identical to the full evaluator at every
   confirmation — probing never writes the exact caches. *)
let probe_walk ?(moves = 400) name =
  let p = compile name in
  let st = Core.State.snapshot p.Core.Problem.state0 in
  let rng = Anneal.Rng.create 1234 in
  let w = Core.Weights.create () in
  let ss = Core.Eval.Incr.create p in
  let n = Core.State.n_vars st in
  (* prime the session: probing screens against the exact caches *)
  ignore (Core.Eval.Incr.cost ss w st);
  for _step = 1 to moves do
    let base = Core.State.snapshot st in
    let k = 1 + Anneal.Rng.int rng 4 in
    let best = ref None in
    for _ = 1 to k do
      Core.State.restore ~from:base st;
      for _ = 0 to Anneal.Rng.int rng 2 do
        let v = Anneal.Rng.int rng n in
        let cur = st.Core.State.values.(v) in
        st.Core.State.values.(v) <-
          Core.State.clamp st v
            (cur +. ((Anneal.Rng.float rng -. 0.5) *. (Float.abs cur +. 0.1)))
      done;
      let c = Core.Eval.Incr.probe_cost ss w st in
      match !best with
      | Some (bc, _) when bc <= c -> ()
      | _ -> best := Some (c, Core.State.snapshot st)
    done;
    (* confirm the tournament winner — or reject the whole batch — through
       the exact path, and it must still match the full evaluator bitwise *)
    (match !best with
    | Some (_, winner) when Anneal.Rng.int rng 4 > 0 -> Core.State.restore ~from:winner st
    | _ -> Core.State.restore ~from:base st);
    let incr = Core.Eval.Incr.cost ss w st in
    let full = Core.Eval.cost p w st in
    check_breakdown name full incr
  done;
  let s = Core.Eval.Incr.stats ss in
  Alcotest.(check int) (name ^ ": no resync mismatches") 0 s.Core.Eval.Incr.resync_mismatches;
  Alcotest.(check bool) (name ^ ": probes ran") true (s.Core.Eval.Incr.probes > 0);
  Alcotest.(check bool)
    (name ^ ": probe path refit jigs")
    true
    (s.Core.Eval.Incr.probe_rom_builds > 0)

let probe_walk_case name =
  Alcotest.test_case ("probe walk " ^ name) `Slow (fun () -> probe_walk name)

(* The probe's clean slice: with exact evaluations interleaved among
   probes of perturbed candidates, a probe of the session's own exact
   state finds no dirty variable, so every node, element, jig and spec
   comes from the exact caches and the screen equals that evaluation's
   total bit for bit. *)
let probe_clean_slice ?(moves = 300) name =
  let p = compile name in
  let st = Core.State.snapshot p.Core.Problem.state0 in
  let rng = Anneal.Rng.create 77 in
  let w = Core.Weights.create () in
  let ss = Core.Eval.Incr.create p in
  let n = Core.State.n_vars st in
  let perturb () =
    for _ = 0 to Anneal.Rng.int rng 2 do
      let v = Anneal.Rng.int rng n in
      let cur = st.Core.State.values.(v) in
      st.Core.State.values.(v) <-
        Core.State.clamp st v (cur +. ((Anneal.Rng.float rng -. 0.5) *. (Float.abs cur +. 0.1)))
    done
  in
  for _step = 1 to moves do
    let base = Core.State.snapshot st in
    for _ = 0 to Anneal.Rng.int rng 3 do
      Core.State.restore ~from:base st;
      perturb ();
      ignore (Core.Eval.Incr.probe_cost ss w st)
    done;
    (* keep the last candidate, or go back to where the step started *)
    if Anneal.Rng.int rng 3 = 0 then Core.State.restore ~from:base st;
    let exact = Core.Eval.Incr.cost ss w st in
    check_bits name "probe at the exact state" exact.Core.Eval.total
      (Core.Eval.Incr.probe_cost ss w st)
  done;
  Alcotest.(check int)
    (name ^ ": no resync mismatches")
    0 (Core.Eval.Incr.stats ss).Core.Eval.Incr.resync_mismatches

let probe_clean_case name =
  Alcotest.test_case ("clean probe " ^ name) `Slow (fun () -> probe_clean_slice name)

(* The measured view itself (ops, roms, spec values) must round-trip. *)
let test_measure_identical () =
  let p = compile "simple-ota" in
  let st = Core.State.snapshot p.Core.Problem.state0 in
  let ss = Core.Eval.Incr.create p in
  let rng = Anneal.Rng.create 7 in
  let n = Core.State.n_vars st in
  for _ = 1 to 50 do
    let v = Anneal.Rng.int rng n in
    st.Core.State.values.(v) <-
      Core.State.clamp st v (st.Core.State.values.(v) *. (1.0 +. (0.01 *. Anneal.Rng.float rng)));
    let mi = Core.Eval.Incr.measure_with ss st in
    let mf = Core.Eval.measure p st in
    List.iter2
      (fun (sn_f, vf) (sn_i, vi) ->
        Alcotest.(check string) "spec order" sn_f sn_i;
        match (vf, vi) with
        | None, None -> ()
        | Some a, Some b -> check_bits "simple-ota" ("spec " ^ sn_f) a b
        | Some _, None | None, Some _ -> Alcotest.failf "spec %s: presence differs" sn_f)
      mf.Core.Eval.spec_values mi.Core.Eval.spec_values;
    List.iter2
      (fun (en_f, _) (en_i, _) -> Alcotest.(check string) "ops order" en_f en_i)
      mf.Core.Eval.bias.Core.Eval.ops mi.Core.Eval.bias.Core.Eval.ops;
    Array.iteri
      (fun i v -> check_bits "simple-ota" (Printf.sprintf "node %d" i) v mi.Core.Eval.bias.Core.Eval.node_v.(i))
      mf.Core.Eval.bias.Core.Eval.node_v
  done

(* Resync must be able to recover a poisoned session: invalidate drops all
   caches and the next eval runs full. *)
let test_invalidate_recovers () =
  let p = compile "simple-ota" in
  let st = Core.State.snapshot p.Core.Problem.state0 in
  let w = Core.Weights.create () in
  let ss = Core.Eval.Incr.create p in
  let a = Core.Eval.Incr.cost ss w st in
  Core.Eval.Incr.invalidate ss;
  let b = Core.Eval.Incr.cost ss w st in
  check_breakdown "simple-ota" a b;
  let s = Core.Eval.Incr.stats ss in
  Alcotest.(check int) "both were full evals" 2 s.Core.Eval.Incr.full_evals

(* Same recovery story for probing: poisoning the session must not leave
   stale caches behind — the next exact eval rebuilds them, and probing
   keeps screening against fresh state. *)
let test_probe_invalidate_recovers () =
  let p = compile "simple-ota" in
  let st = Core.State.snapshot p.Core.Problem.state0 in
  let w = Core.Weights.create () in
  let ss = Core.Eval.Incr.create p in
  let full = Core.Eval.cost p w st in
  ignore (Core.Eval.Incr.cost ss w st);
  let v0 = st.Core.State.values.(0) in
  let perturb () = st.Core.State.values.(0) <- Core.State.clamp st 0 (v0 *. 1.01) in
  perturb ();
  let pc1 = Core.Eval.Incr.probe_cost ss w st in
  st.Core.State.values.(0) <- v0;
  Core.Eval.Incr.invalidate ss;
  (* recovery: full re-eval repopulates every cache, bit-identically *)
  let b = Core.Eval.Incr.cost ss w st in
  check_breakdown "simple-ota" full b;
  (* and the rebuilt caches serve the same screen again *)
  perturb ();
  let pc2 = Core.Eval.Incr.probe_cost ss w st in
  check_bits "simple-ota" "probe cost across invalidate" pc1 pc2;
  st.Core.State.values.(0) <- v0;
  let c = Core.Eval.Incr.cost ss w st in
  check_breakdown "simple-ota" full c;
  let s = Core.Eval.Incr.stats ss in
  Alcotest.(check int) "probes" 2 s.Core.Eval.Incr.probes

(* The whole point: an annealing run with the incremental evaluator must
   produce the same trajectory as one without — same accepted count, same
   winner, bit-identical best cost and final design point. Batched probing
   deliberately changes the trajectory (k candidates per decision instead
   of one), so the unbatched incremental run ([probe_batch:1]) is the one
   that must match the full evaluator move for move. *)
let test_synthesize_equivalent name =
  let p = compile name in
  let run incremental =
    Core.Oblx.synthesize ~seed:3 ~moves:800 ~incremental ~probe_batch:1 p
  in
  let a = run false in
  let b = run true in
  Alcotest.(check int) "moves" a.Core.Oblx.moves b.Core.Oblx.moves;
  Alcotest.(check int) "accepted" a.Core.Oblx.accepted b.Core.Oblx.accepted;
  check_bits name "best cost" a.Core.Oblx.best_cost b.Core.Oblx.best_cost;
  Array.iteri
    (fun i v -> check_bits name (Printf.sprintf "final var %d" i) v b.Core.Oblx.final.Core.State.values.(i))
    a.Core.Oblx.final.Core.State.values;
  List.iter2
    (fun (sn, va) (_, vb) ->
      match (va, vb) with
      | None, None -> ()
      | Some x, Some y -> check_bits name ("predicted " ^ sn) x y
      | Some _, None | None, Some _ -> Alcotest.failf "prediction presence differs for %s" sn)
    a.Core.Oblx.predicted b.Core.Oblx.predicted;
  match b.Core.Oblx.eval_stats with
  | None -> Alcotest.fail "incremental run reports no eval stats"
  | Some s ->
      Alcotest.(check int) "no resync mismatches" 0 s.Core.Eval.Incr.resync_mismatches;
      Alcotest.(check bool) "incremental evals dominate" true (s.Core.Eval.Incr.incr_evals > 0)

(* With batched probing ON (the default), the screen orders candidates
   approximately — but every ACCEPTED state must still carry the exact
   cost. Record a probed run at move granularity and replay every accepted
   state against the full evaluator with zero tolerance. *)
let test_batched_accepted_exact name =
  let p = compile name in
  let ring = Obs.Sink.Ring.create ~capacity:200_000 in
  let trace = Obs.Trace.make ~level:Obs.Event.Moves [ Obs.Sink.Ring.sink ring ] in
  let r = Core.Oblx.synthesize ~seed:5 ~moves:800 ~obs:trace p in
  Obs.Trace.close trace;
  (match r.Core.Oblx.eval_stats with
  | None -> Alcotest.fail "probed run reports no eval stats"
  | Some s ->
      Alcotest.(check bool) (name ^ ": probes ran") true (s.Core.Eval.Incr.probes > 0);
      Alcotest.(check int) (name ^ ": no resync mismatches") 0 s.Core.Eval.Incr.resync_mismatches);
  match Core.Oblx.replay ~tol:0.0 p (Obs.Sink.Ring.contents ring) with
  | Ok stats ->
      Alcotest.(check bool)
        (name ^ ": accepted states replayed")
        true
        (stats.Obs.Replay.rs_checked > 0)
  | Error (ms, _) ->
      Alcotest.failf "%s: %d accepted states do not re-evaluate exactly" name (List.length ms)

let () =
  let walks =
    List.filter_map
      (fun (e : Suite.Ckts.entry) ->
        if e.Suite.Ckts.synthesized then Some (walk_case e.Suite.Ckts.name) else None)
      Suite.Ckts.all
  in
  let probe_walks =
    List.filter_map
      (fun (e : Suite.Ckts.entry) ->
        if e.Suite.Ckts.synthesized then Some (probe_walk_case e.Suite.Ckts.name) else None)
      Suite.Ckts.all
  in
  let clean_probes =
    List.filter_map
      (fun (e : Suite.Ckts.entry) ->
        if e.Suite.Ckts.synthesized then Some (probe_clean_case e.Suite.Ckts.name) else None)
      Suite.Ckts.all
  in
  Alcotest.run "incr"
    [
      ("bit-identity walks", walks);
      ("probe-then-confirm walks", probe_walks);
      ("probe at the exact state", clean_probes);
      ( "measured view",
        [
          Alcotest.test_case "measure identical" `Quick test_measure_identical;
          Alcotest.test_case "invalidate recovers" `Quick test_invalidate_recovers;
          Alcotest.test_case "probe invalidate recovers" `Quick test_probe_invalidate_recovers;
        ] );
      ( "synthesis equivalence",
        [
          Alcotest.test_case "simple-ota" `Slow (fun () ->
              test_synthesize_equivalent "simple-ota");
          Alcotest.test_case "two-stage" `Slow (fun () ->
              test_synthesize_equivalent "two-stage");
          Alcotest.test_case "batched accepted exact simple-ota" `Slow (fun () ->
              test_batched_accepted_exact "simple-ota");
          Alcotest.test_case "batched accepted exact two-stage" `Slow (fun () ->
              test_batched_accepted_exact "two-stage");
        ] );
    ]
