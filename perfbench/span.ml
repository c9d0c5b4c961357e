(* Benchmark-side tracing: spans recorded from outside the program, around
   its public calls and from the annealer's own telemetry events, kept in
   memory and written out as JSONL when the run ends. Nothing here is
   visible to the code under test, so it cannot feed a decision. *)

let now () = Monotonic_clock.now ()
let secs t0 t1 = Int64.to_float (Int64.sub t1 t0) *. 1e-9

type span = { id : int; parent : int; job : int; name : string; t0 : int64; t1 : int64 }

type recorder = { mutable spans : span list; mutable next_id : int; lock : Mutex.t }

let create () = { spans = []; next_id = 1; lock = Mutex.create () }

let locked r f =
  Mutex.lock r.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock r.lock) f

let reserve r =
  locked r (fun () ->
      let id = r.next_id in
      r.next_id <- id + 1;
      id)

let add r ?id ~parent ~job name t0 t1 =
  let id = match id with Some id -> id | None -> reserve r in
  locked r (fun () -> r.spans <- { id; parent; job; name; t0; t1 } :: r.spans);
  id

(* [timed rc ~parent ~job name f] runs [f] inside a span when tracing
   ([rc = Some _]) and returns its result with the span's id (0 when not
   tracing). The untraced path is a plain call. *)
let timed rc ~parent ~job name f =
  match rc with
  | None -> (f 0, 0)
  | Some r ->
      let id = reserve r in
      let t0 = now () in
      let finish () = ignore (add r ~id ~parent ~job name t0 (now ())) in
      let v = Fun.protect ~finally:finish (fun () -> f id) in
      (v, id)

let spans r = List.rev r.spans
let duration s = secs s.t0 s.t1

(* Sum of the durations of [name] spans, optionally restricted to one job. *)
let total ?job r name =
  List.fold_left
    (fun acc s ->
      if s.name = name && match job with Some j -> s.job = j | None -> true then
        acc +. duration s
      else acc)
    0.0 r.spans

let count r name = List.length (List.filter (fun s -> s.name = name) r.spans)

(* [reconcile r ~parent_name ~children ~tol] checks that every [parent_name]
   span is tiled by its direct children of the listed names: the children's
   summed duration must be within [tol] (relative) of the parent's. Returns
   the worst relative gap and the jobs whose spans missed. *)
let reconcile r ~parent_name ~children ~tol =
  let by_parent = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if List.mem s.name children then
        Hashtbl.replace by_parent s.parent
          (duration s +. Option.value (Hashtbl.find_opt by_parent s.parent) ~default:0.0))
    r.spans;
  List.fold_left
    (fun (worst, bad) s ->
      if s.name <> parent_name then (worst, bad)
      else
        let d = duration s in
        let c = Option.value (Hashtbl.find_opt by_parent s.id) ~default:0.0 in
        let gap = if d > 0.0 then Float.abs (d -. c) /. d else 0.0 in
        (Float.max worst gap, if gap > tol then s.job :: bad else bad))
    (0.0, []) r.spans

let write r path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"job\":%d,\"name\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
            s.id s.parent s.job s.name s.t0 s.t1)
        (spans r))

(* An [Obs.Sink] that turns the annealer's own events into spans under the
   [parent] span of one job: one [anneal.restart] per restart, tiled by
   [anneal.stage] (moves up to a Stage event), [anneal.hook] (the
   per-stage weight update, from Stage to the last Weight_update/Evals
   event) and [anneal.finish] (leftover moves, Newton polish and the final
   measurement, up to Done). The tiling holds by construction, so only the
   restart span is worth reconciling, against the span taken around the
   call. [on_point] sees every accepted design point with the adaptive
   weights in force, for the kernel replay. *)
let anneal_sink r ~parent ~job ?on_point () =
  let restart_id = ref 0 and restart_t0 = ref 0L and boundary = ref 0L in
  let hook = ref None in
  let weights = ref (1.0, 1.0, 1.0) in
  let flush_hook () =
    match !hook with
    | Some (s, e) ->
        ignore (add r ~parent:!restart_id ~job "anneal.hook" s e);
        boundary := e;
        hook := None
    | None -> ()
  in
  let emit (ev : Obs.Event.t) =
    let t = now () in
    match ev.Obs.Event.body with
    | Obs.Event.Restart _ ->
        restart_id := reserve r;
        restart_t0 := t;
        boundary := t
    | Obs.Event.Stage _ ->
        flush_hook ();
        ignore (add r ~parent:!restart_id ~job "anneal.stage" !boundary t);
        hook := Some (t, t)
    | Obs.Event.Weight_update { w_perf; w_dev; w_dc; _ } ->
        weights := (w_perf, w_dev, w_dc);
        Option.iter (fun (s, _) -> hook := Some (s, t)) !hook
    | Obs.Event.Evals _ -> Option.iter (fun (s, _) -> hook := Some (s, t)) !hook
    | Obs.Event.Move { decision = Obs.Event.Accepted; state = Some (values, grid); _ } ->
        flush_hook ();
        Option.iter (fun f -> f ~weights:!weights values grid) on_point
    | Obs.Event.Move _ -> flush_hook ()
    | Obs.Event.Done _ ->
        flush_hook ();
        ignore (add r ~parent:!restart_id ~job "anneal.finish" !boundary t);
        ignore (add r ~id:!restart_id ~parent ~job "anneal.restart" !restart_t0 t)
  in
  { Obs.Sink.emit; close = (fun () -> ()) }
