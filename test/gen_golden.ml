(* Regenerate the committed golden traces used by test_obs.ml:

     dune exec test/gen_golden.exe -- test/golden

   writes every trace of the table below into that directory. The
   parameters here (file, circuit, seed, move budget, trace level) are the
   contract with the golden tests — change them in both places or the diff
   will flag every event. Small budgets keep the committed files small:
   the Moves-level simple-ota trace exercises every event kind, and the
   Stage-level traces pin the per-stage costs, weights and evaluator
   counters of the larger AWE circuits and of the in-loop transient. *)

let goldens =
  [
    ("simple_ota.jsonl", "simple-ota", 11, 600, Obs.Event.Moves);
    ("folded_cascode_stage.jsonl", "folded-cascode", 3, 1200, Obs.Event.Stage);
    ("bicmos_two_stage_stage.jsonl", "bicmos-two-stage", 5, 1200, Obs.Event.Stage);
    ("two_stage_stage.jsonl", "two-stage", 9, 1200, Obs.Event.Stage);
    ("tran_buffer_stage.jsonl", "tran-buffer", 7, 400, Obs.Event.Stage);
  ]

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/golden" in
  List.iter
    (fun (file, circuit, seed, moves, level) ->
      let e =
        match Suite.Ckts.find circuit with
        | Some e -> e
        | None -> failwith ("unknown circuit " ^ circuit)
      in
      let p =
        match Core.Compile.compile_source e.Suite.Ckts.source with
        | Ok p -> p
        | Error msg -> failwith msg
      in
      let path = Filename.concat dir file in
      let sink = Obs.Sink.jsonl_file path in
      let obs = Obs.Trace.make ~level [ sink ] in
      let r = Core.Oblx.synthesize ~seed ~moves ~obs p in
      Obs.Trace.close obs;
      Printf.printf "wrote %s (best cost %.17g, %d moves, %d accepted)\n" path
        r.Core.Oblx.best_cost r.moves r.accepted)
    goldens
