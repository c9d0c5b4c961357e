(* Kernel replay: accepted design points recorded from traced jobs, fed back
   in trajectory order through the evaluator's and the numerical cores'
   entry points, one timed call at a time. It runs after the measured
   passes and feeds no decision. *)

type point = { w : Core.Weights.t; st : Core.State.t }

(* Per-kernel call counts and busy seconds, keyed by metric stem. *)
type t = (string, int * float) Hashtbl.t

let create () : t = Hashtbl.create 16

let timed (t : t) name f =
  let t0 = Span.now () in
  let v = f () in
  let dt = Span.secs t0 (Span.now ()) in
  let n, s = Option.value (Hashtbl.find_opt t name) ~default:(0, 0.0) in
  Hashtbl.replace t name (n + 1, s +. dt);
  v

(* Mean milliseconds per call of one kernel (0 when it never ran). *)
let ms_per_call (t : t) name =
  match Hashtbl.find_opt t name with
  | Some (n, s) when n > 0 -> 1000.0 *. s /. float_of_int n
  | Some _ | None -> 0.0

let calls (t : t) name = match Hashtbl.find_opt t name with Some (n, _) -> n | None -> 0

(* Matches the moment count of [Awe.Rom.build_with]'s default order. *)
let exact_moments = 14

let jig_kernels t (p : Core.Problem.t) (pt : point) (bp : Core.Eval.bias_point) =
  let env = Core.Eval.value_env p pt.st in
  let value e = Netlist.Expr.eval env e in
  let ops name = List.assoc_opt name bp.Core.Eval.ops in
  List.iter
    (fun (j : Core.Problem.jig) ->
      let lin = timed t "mna.stamp" (fun () -> Mna.Linearize.build ~value ~ops j.jig_circuit) in
      let fac = timed t "la.lu" (fun () -> Awe.Moments.factor lin) in
      List.iter
        (fun (_, (tf : Core.Problem.tf)) ->
          let b = Mna.Linearize.excitation_of lin ~src:tf.src in
          let sel = Mna.Linearize.output_vector lin ~pos:tf.out_pos ~neg:tf.out_neg in
          let mom =
            timed t "awe.moments" (fun () ->
                Awe.Moments.compute_with fac ~b ~sel ~count:exact_moments)
          in
          ignore (timed t "awe.rom" (fun () -> Awe.Rom.of_moments mom)))
        j.tfs;
      match j.jig_tran with
      | None -> ()
      | Some tc ->
          let dt = Option.value tc.Netlist.Ast.tr_dtloop ~default:tc.Netlist.Ast.tr_dt in
          List.iter
            (fun (tf, _) ->
              ignore
                (timed t "mna.tran" (fun () ->
                     Core.Eval.transient_response p ~value ~tf ~vstep:tc.Netlist.Ast.tr_vstep
                       ~tstop:tc.Netlist.Ast.tr_tstop ~dt)))
            j.tfs)
    p.jigs

(* [replay t p points] times the kernels over [points] (oldest first). The
   incremental pass alternates [Incr.cost] on point k with [Incr.probe_cost]
   on point k+1, so every probe is one move from the session's exact state,
   as in the annealer; the first exact call primes the session and is not
   timed. Points a kernel cannot evaluate are skipped. *)
let replay t (p : Core.Problem.t) points =
  let pts = Array.of_list points in
  let n = Array.length pts in
  let guard f =
    try f () with Failure _ | Not_found | La.Lu.Singular _ | Core.Eval.Measurement_failed _ -> ()
  in
  let ss = Core.Eval.Incr.create p in
  for k = 0 to n - 2 do
    let a = pts.(k) and b = pts.(k + 1) in
    guard (fun () ->
        if k = 0 then ignore (Core.Eval.Incr.cost ss a.w a.st)
        else ignore (timed t "eval.incr" (fun () -> Core.Eval.Incr.cost ss a.w a.st));
        ignore (timed t "eval.probe" (fun () -> Core.Eval.Incr.probe_cost ss b.w b.st)))
  done;
  Array.iter
    (fun pt ->
      guard (fun () ->
          ignore (timed t "eval.full" (fun () -> Core.Eval.cost p pt.w pt.st));
          let bp = timed t "eval.bias" (fun () -> Core.Eval.bias_point p pt.st) in
          let m = timed t "eval.measure" (fun () -> Core.Eval.measure p pt.st) in
          ignore (timed t "eval.fold" (fun () -> Core.Eval.breakdown_of p pt.w pt.st m));
          jig_kernels t p pt bp))
    pts
