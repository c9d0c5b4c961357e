(* Run the full benchmark suite and print a summary — a lighter-weight
   sibling of bench/main.exe for interactive use:

   suite_runner [seed [moves [runs [jobs [trace-file [trace-level]]]]]]

   An empty argument ('') takes its default. With runs > 1 each circuit
   is synthesized by the domain-parallel multi-start engine
   (Oblx.best_of) and the winning run is reported. With a trace file,
   every circuit's annealing telemetry is appended to the same JSONL
   stream (docs/OBSERVABILITY.md); trace-level is one of
   summary|stage|moves (default stage). *)

let usage = "suite_runner [seed [moves [runs [jobs [trace-file [trace-level]]]]]]"

let () =
  let arg k = if Array.length Sys.argv > k && Sys.argv.(k) <> "" then Some Sys.argv.(k) else None in
  let int_arg k =
    Option.map
      (fun s ->
        match int_of_string_opt s with
        | Some v -> v
        | None ->
            prerr_endline ("usage: " ^ usage);
            exit 2)
      (arg k)
  in
  let seed = Option.value (int_arg 1) ~default:1 in
  let moves = int_arg 2 in
  let runs = Option.value (int_arg 3) ~default:1 in
  let jobs = int_arg 4 in
  let obs =
    match arg 5 with
    | None -> Obs.Trace.none
    | Some file ->
        let level =
          match Option.map Obs.Event.level_of_string (arg 6) with
          | Some (Ok l) -> l
          | None -> Obs.Event.Stage
          | Some (Error e) ->
              prerr_endline e;
              exit 2
        in
        Obs.Trace.make ~level [ Obs.Sink.jsonl_file file ]
  in
  Printf.printf "%-22s %8s %8s %10s %8s %s\n" "circuit" "cost" "evals" "ms/eval" "time" "unmet";
  List.iter
    (fun (e : Suite.Ckts.entry) ->
      if e.synthesized then begin
        match Core.Compile.compile_source e.source with
        | Error msg -> Printf.printf "%-22s COMPILE FAIL: %s\n%!" e.name msg
        | Ok p ->
            let r, all = Core.Oblx.best_of ~seed ?moves ?jobs ~obs ~runs p in
            let unmet =
              List.filter_map
                (fun (s : Core.Problem.spec) ->
                  match List.assoc s.Core.Problem.spec_name r.Core.Oblx.predicted with
                  | None -> Some s.spec_name
                  | Some v -> begin
                      match s.kind with
                      | Netlist.Ast.Constraint_ge when v < s.good *. 0.98 -> Some s.spec_name
                      | Netlist.Ast.Constraint_le when v > s.good *. 1.02 -> Some s.spec_name
                      | Netlist.Ast.Constraint_ge | Netlist.Ast.Constraint_le
                      | Netlist.Ast.Objective_max | Netlist.Ast.Objective_min ->
                          None
                    end)
                p.Core.Problem.specs
            in
            let wall = List.fold_left (fun a (x : Core.Oblx.result) -> a +. x.run_time_s) 0.0 all in
            Printf.printf "%-22s %8.3g %8d %10.2f %7.1fs %s\n%!" e.name r.best_cost r.evals
              r.eval_time_ms wall (String.concat "," unmet)
      end)
    Suite.Ckts.all;
  Obs.Trace.close obs
