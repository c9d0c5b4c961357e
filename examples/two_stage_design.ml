(* Example: synthesize the two-stage Miller op-amp benchmark, inspect the
   AWE view of the final design (poles, zeros, phase margin), and sweep
   the compensation capacitor to see the stability trade-off — the kind
   of post-synthesis exploration the public API supports.

   Run with: dune exec examples/two_stage_design.exe *)

let () =
  match Core.Compile.compile_source Suite.Two_stage.source with
  | Error e -> failwith e
  | Ok p ->
      print_endline "== synthesizing the two-stage op-amp ==";
      let r = Core.Oblx.synthesize ~seed:17 ~moves:30000 p in
      Printf.printf "cost %.4g after %d moves (%.1f s)\n" r.Core.Oblx.best_cost r.moves
        r.run_time_s;
      Core.Report.print_sizes Format.std_formatter p r.final;
      Format.pp_print_flush Format.std_formatter ();
      (* Look inside: the reduced-order model OBLX used for the final
         design. *)
      let m = Core.Eval.measure p r.final in
      (match List.assoc_opt "tf" m.Core.Eval.roms with
      | Some (Ok rom) ->
          Printf.printf "AWE model of the differential path (order %d):\n"
            (Array.length (Awe.Rom.poles rom));
          Array.iter
            (fun z ->
              Printf.printf "  pole at (%s, %s) rad/s\n" (Core.Report.eng z.La.Cpx.re)
                (Core.Report.eng z.La.Cpx.im))
            (Awe.Rom.poles rom);
          Array.iter
            (fun z ->
              Printf.printf "  zero at (%s, %s) rad/s\n" (Core.Report.eng z.La.Cpx.re)
                (Core.Report.eng z.La.Cpx.im))
            (Awe.Rom.zeros rom)
      | Some (Error e) -> Printf.printf "no ROM: %s\n" e
      | None -> ());
      (* Sweep the compensation cap around the chosen value and watch the
         phase margin move: a classical stability trade-off, evaluated
         with AWE in microseconds per point. *)
      print_endline "compensation-capacitor sweep (AWE-evaluated):";
      let st = Core.State.snapshot r.final in
      let cc_index =
        let rec find i =
          match st.Core.State.info.(i) with
          | Core.State.User { name = "ccomp"; _ } -> i
          | Core.State.User _ | Core.State.Node_voltage _ -> find (i + 1)
        in
        find 0
      in
      let cc0 = st.Core.State.values.(cc_index) in
      List.iter
        (fun factor ->
          Core.State.set_initial st cc_index (cc0 *. factor);
          let m = Core.Eval.measure p st in
          let pm = List.assoc "pm" m.Core.Eval.spec_values in
          let ugf = List.assoc "ugf" m.Core.Eval.spec_values in
          Printf.printf "  cc = %-8s pm = %-8s ugf = %s\n"
            (Core.Report.eng (cc0 *. factor))
            (match pm with Some v -> Printf.sprintf "%.1f deg" v | None -> "fail")
            (match ugf with Some v -> Core.Report.eng v | None -> "fail"))
        [ 0.25; 0.5; 1.0; 2.0; 4.0 ]
