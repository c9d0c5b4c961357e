(* What one workload run hands back to the command: counts for the result
   line, the end-to-end or per-layer metrics, and human-readable detail. *)

type metric = { name : string; value : float; unit_ : string }

type t = {
  attempted : int;
  failed : int;
  metrics : metric list;
  lines : string list;
}

let m name unit_ value = { name; value = (if Float.is_finite value then value else 0.0); unit_ }

(* Peak resident set (VmHWM) of a process, in MB. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec find () =
            match input_line ic with
            | exception End_of_file -> 0.0
            | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
                Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                    float_of_int kb /. 1024.0)
            | _ -> find ()
          in
          find ())

(* Every per-layer metric a traced run prints, in order, with its unit. A
   workload that does not exercise a layer reports it as 0. *)
let per_layer_units =
  [
    ("netlist.parse_ms", "ms"); ("compile.ms", "ms"); ("oblx.s", "s"); ("verify.s", "s");
    ("anneal.hook_s", "s"); ("anneal.finish_s", "s"); ("eval.exact_calls", "count");
    ("eval.exact_ms", "ms"); ("eval.exact_s", "s"); ("anneal.non_exact_s", "s");
    ("anneal.accept_frac", "ratio"); ("eval.probe_calls", "count");
    ("eval.probe_refit_frac", "ratio"); ("eval.probe_fallback_frac", "ratio");
    ("eval.op_hit_frac", "ratio"); ("eval.rom_reuse_frac", "ratio");
    ("eval.spec_reuse_frac", "ratio"); ("eval.resync_mismatches", "count");
    ("eval.full_ms", "ms"); ("eval.incr_ms", "ms"); ("eval.probe_ms", "ms");
    ("eval.probe_est_s", "s"); ("eval.bias_ms", "ms"); ("eval.measure_ms", "ms");
    ("eval.fold_ms", "ms"); ("mna.stamp_ms", "ms"); ("la.lu_ms", "ms"); ("awe.moments_ms", "ms");
    ("awe.rom_ms", "ms"); ("mna.tran_ms", "ms"); ("serve.wait_s", "s"); ("serve.run_s", "s");
    ("serve.overshoot_s", "s"); ("serve.submit_ms", "ms"); ("serve.status_ms", "ms");
    ("serve.result_ms", "ms"); ("serve.status_per_job", "count");
    ("serve.worker_busy_frac", "ratio"); ("compile_cache.hit_frac", "ratio");
    ("journal.bytes_per_job", "bytes"); ("serve.warm_frac", "ratio"); ("serve.rejected", "count");
    ("trace.overhead_frac", "ratio");
  ]

let complete_per_layer ms =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> x.name = name) ms with Some x -> x | None -> m name unit_ 0.0)
    per_layer_units
