(* Regenerate the committed golden traces used by test_obs.ml:

     dune exec test/gen_golden.exe -- test/golden

   writes every trace of the table below into that directory, and
   [verify.jsonl]: one line per traced run with every
   [Verify.simulate_specs] value of its winner, printed with [%h]. The
   parameters here (file, circuit, seed, move budget, trace level) are the
   contract with the golden tests — change them in both places or the diff
   will flag every event. Small budgets keep the committed files small:
   the Moves-level simple-ota trace exercises every event kind, and the
   Stage-level traces pin the per-stage costs, weights and evaluator
   counters of the larger AWE circuits and of the in-loop transient. The
   verify lines pin the reference simulator's DC, AC and transient paths
   bit for bit. *)

let goldens =
  [
    ("simple_ota.jsonl", "simple-ota", 11, 600, Obs.Event.Moves);
    ("folded_cascode_stage.jsonl", "folded-cascode", 3, 1200, Obs.Event.Stage);
    ("bicmos_two_stage_stage.jsonl", "bicmos-two-stage", 5, 1200, Obs.Event.Stage);
    ("two_stage_stage.jsonl", "two-stage", 9, 1200, Obs.Event.Stage);
    ("tran_buffer_stage.jsonl", "tran-buffer", 7, 400, Obs.Event.Stage);
    ("ota_stage.jsonl", "ota", 13, 1200, Obs.Event.Stage);
  ]

(* One spec value as the verify golden records it. *)
let verify_value = function Ok v -> Printf.sprintf "%h" v | Error m -> "error: " ^ m

let verify_line circuit p (r : Core.Oblx.result) =
  let fields =
    match Core.Verify.simulate_specs p r.Core.Oblx.final with
    | Error e -> [ ("error", Obs.Json.Str e) ]
    | Ok sims ->
        [
          ( "specs",
            Obs.Json.Arr
              (List.map
                 (fun (name, v) -> Obs.Json.Arr [ Obs.Json.Str name; Obs.Json.Str (verify_value v) ])
                 sims) );
        ]
  in
  Obs.Json.to_string (Obs.Json.Obj (("circuit", Obs.Json.Str circuit) :: fields))

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/golden" in
  let verify_lines =
    List.map
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
          r.Core.Oblx.best_cost r.moves r.accepted;
        verify_line circuit p r)
      goldens
  in
  let path = Filename.concat dir "verify.jsonl" in
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) verify_lines);
  Printf.printf "wrote %s\n" path
