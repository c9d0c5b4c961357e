(* perfbench — the repository's benchmark: .ast source to verified design,
   in-process (synth) and through the oblxd daemon (serve-mix). See
   perfbench/README.md for the workloads and metrics.

     perfbench --workload synth --seed 1 --seconds 50 --trace 0

   --trace 0 prints the end-to-end metrics of an untraced run; --trace 1 a
   separate traced run's per-layer metrics. The last line of standard output
   is one JSON object; the exit code is non-zero when any output check or
   the determinism guard failed. *)

let workloads = [ "synth"; "serve-mix" ]
let work_dir = "_perfbench"
let setup_probes = 41

(* Set-up of the synth workload, timed from outside: spawn this program in
   probe mode, which does everything a run does before its first job and
   then says so. Each spawn's start and end, for the median. *)
let synth_setup () =
  let one () =
    let rd, wr = Unix.pipe ~cloexec:true () in
    let t0 = Span.now () in
    let pid =
      Unix.create_process Sys.executable_name
        [| Sys.executable_name; "--setup-probe" |]
        Unix.stdin wr Unix.stderr
    in
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let line = try input_line ic with End_of_file -> "" in
    let t1 = Span.now () in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    if line <> "ready" then failwith "perfbench: set-up probe failed";
    (t0, t1)
  in
  List.init setup_probes (fun _ -> one ())

let run_workload ~seed ~seconds ~trace name =
  let spans_path =
    Filename.concat work_dir (Printf.sprintf "spans-%s-seed%d.jsonl" name seed)
  in
  (* End-to-end runs are timed against the yardstick, sampled from set-up
     to the last job. *)
  let yard () =
    Yard.start
      ~path:(Filename.concat work_dir (Printf.sprintf "yard-%d-%s.txt" (Unix.getpid ()) name))
  in
  if name = "synth" then
    if trace then Synth.per_layer ~sources:(Synth.prepare ()) ~seed ~seconds ~spans_path
    else
      let y = yard () in
      let setup = synth_setup () in
      Synth.end_to_end ~sources:(Synth.prepare ()) ~seed ~seconds ~setup ~yard:(fun () ->
          Yard.stop y)
  else
    let yard = if trace then None else Some (yard ()) in
    Serve_mix.run ~work:work_dir ~seed ~seconds ~trace ?yard ~spans_path ()

let result_line ~attempted ~failed ms =
  let metric (m : Report.metric) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value m.unit_
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (failed = 0) attempted failed
    (String.concat ", " (List.map metric ms))

let print_report name (r : Report.t) =
  Printf.printf "== %s\n" name;
  List.iter
    (fun (m : Report.metric) -> Printf.printf "%-28s %.6g %s\n" m.name m.value m.unit_)
    r.metrics;
  List.iter print_endline r.lines

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 50.0 and trace = ref 0 in
  let probe = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME synth | serve-mix | all");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured time per run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) metrics");
      ("--setup-probe", Arg.Set probe, " internal: report readiness after set-up and exit");
      ( "--yard-sampler",
        Arg.Unit Yard.sample_forever,
        " internal: sample the CPU's speed until killed" );
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench [options]";
  if !probe then begin
    ignore (Synth.prepare ());
    print_endline "ready";
    exit 0
  end;
  let names =
    match !workload with
    | "all" -> workloads
    | w when List.mem w workloads -> [ w ]
    | w ->
        Printf.eprintf "perfbench: unknown workload %S (%s | all)\n" w
          (String.concat " | " workloads);
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace takes 0 or 1";
    exit 2
  end;
  if not (Sys.file_exists work_dir) then Unix.mkdir work_dir 0o755;
  (* A terminated run still goes through [exit], whose handlers stop any
     daemon it started. *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ];
  let reports =
    List.map
      (fun name ->
        let r = run_workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) name in
        let r =
          if !trace = 1 then { r with Report.metrics = Report.complete_per_layer r.Report.metrics }
          else r
        in
        print_report name r;
        (name, r))
      names
  in
  let attempted = List.fold_left (fun a (_, r) -> a + r.Report.attempted) 0 reports in
  let failed = List.fold_left (fun a (_, r) -> a + r.Report.failed) 0 reports in
  let metrics =
    match reports with
    | [ (_, r) ] -> r.Report.metrics
    | _ ->
        List.concat_map
          (fun (name, (r : Report.t)) ->
            List.map (fun (m : Report.metric) -> { m with name = name ^ "/" ^ m.name }) r.metrics)
          reports
  in
  print_endline (result_line ~attempted ~failed metrics);
  exit (if failed = 0 then 0 else 1)
