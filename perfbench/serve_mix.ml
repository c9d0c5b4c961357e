(* The serve-mix workload: oblxd as its own process (one worker, state dir
   on, other flags at their defaults), booted on a fresh copy of a state dir
   written by a fixed preparatory batch, and driven by two closed-loop
   client threads over its Unix socket. Each client submits, polls status
   as [astrx submit --wait] does, then fetches the result. Most requests
   are 400-move submits of OTA-class circuits, a third of them with one
   spec target moved (new canon hash, so the compile cache misses); every
   fourth request is a resynthesize of the client's previous job with one
   spec moved a few percent — the warm path. *)

module Json = Obs.Json

(* Built from source by perfbench/run.sh, relative to the checkout root. *)
let oblxd = "_build/default/bin/oblxd.exe"
let moves = 400
let poll_s = 0.05 (* [Serve.Client.wait]'s default, which [astrx submit --wait] uses *)
let clients = 2
let boots = 21
let recheck_per_client = 2

(* The daemon holds every job record and up to 64 compiled problems, so its
   memory grows with the jobs a run gets through; peak_rss_mb is read once
   this many requests have completed, the same amount of work on a fast or
   a slow machine (at the end, if a run completes fewer). *)
let rss_after_requests = 100
let ota_class = [ "simple-ota"; "ota"; "two-stage" ]

(* ---- files and processes ------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

let copy_file src dst =
  let ic = open_in_bin src in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let oc = open_out_bin dst in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let copy_dir src dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun f ->
      let s = Filename.concat src f in
      if (Unix.lstat s).Unix.st_kind = Unix.S_REG then copy_file s (Filename.concat dst f))
    (Sys.readdir src)

type daemon = { pid : int; socket : string }

let live : daemon list ref = ref []

let reap d ~timeout_s =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Unix.gettimeofday () -. t0 < timeout_s ->
        Unix.sleepf 0.01;
        go ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ();
  live := List.filter (fun x -> x.pid <> d.pid) !live

let stop d =
  ignore (Serve.Client.shutdown ~socket:d.socket ~timeout_s:10.0 ());
  reap d ~timeout_s:30.0

(* Whatever happens, no daemon outlives the benchmark. *)
let kill_live () =
  List.iter
    (fun d ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let () = at_exit kill_live

(* Spawn oblxd and wait until [ping] answers; returns the daemon and the
   spawn and first-answer times (journal and corpus replay between). *)
let boot ~dir ~state =
  let socket = Filename.concat dir "d.sock" in
  let log =
    Unix.openfile (Filename.concat dir "oblxd.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let t0 = Span.now () in
  let pid =
    Unix.create_process oblxd
      [| oblxd; "--socket"; socket; "--workers"; "1"; "--state-dir"; state |]
      Unix.stdin log log
  in
  Unix.close log;
  let d = { pid; socket } in
  live := d :: !live;
  let rec wait () =
    match Serve.Client.ping ~socket ~timeout_s:10.0 () with
    | Ok () -> (t0, Span.now ())
    | Error e -> (
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when Span.secs t0 (Span.now ()) < 60.0 ->
            Unix.sleepf 0.0002;
            wait ()
        | _ -> failwith ("perfbench: oblxd did not come up: " ^ e))
  in
  let s = wait () in
  (d, s)

(* ---- inputs ------------------------------------------------------------- *)

type base = { circuit : string; source : string; constraints : (string * float) list }

let base circuit =
  let source =
    match Suite.Ckts.find circuit with
    | Some e -> e.Suite.Ckts.source
    | None -> failwith ("perfbench: unknown circuit " ^ circuit)
  in
  let ast = Netlist.Parser.parse_problem source in
  let constraints =
    List.filter_map
      (fun (s : Netlist.Ast.spec) ->
        match (s.kind, s.spec_corner) with
        | (Netlist.Ast.Constraint_ge | Netlist.Ast.Constraint_le), None ->
            Some (s.spec_name, s.good)
        | _ -> None)
      ast.Netlist.Ast.specs
  in
  { circuit; source; constraints }

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1)
  in
  go 0

(* [retarget src name good] rewrites the good= target of spec [name]. *)
let retarget src name good =
  let prefix = ".spec " ^ name ^ " " in
  let edit line =
    if String.starts_with ~prefix line then
      match find_sub line "good=" with
      | None -> line
      | Some i ->
          let j =
            match String.index_from_opt line i ' ' with Some j -> j | None -> String.length line
          in
          String.sub line 0 (i + 5)
          ^ Printf.sprintf "%.6g" good
          ^ String.sub line j (String.length line - j)
    else line
  in
  String.concat "\n" (List.map edit (String.split_on_char '\n' src))

let submit_spec ?(moves = moves) ~name ~source ~seed () =
  {
    Serve.Proto.sb_name = name;
    sb_source = source;
    sb_seed = seed;
    sb_moves = Some moves;
    sb_runs = 1;
    sb_priority = 0;
    sb_deadline_s = None;
    sb_trace = false;
    sb_shard = None;
    sb_sweep = [];
    sb_warm = [];
    sb_spec_overrides = [];
  }

let resynth_spec id specs =
  {
    Serve.Proto.rz_id = id;
    rz_specs = specs;
    rz_runs = None;
    rz_moves = None;
    rz_deadline_s = None;
    rz_trace = false;
  }

(* A constraint spec's target moved by 2-5% either way. *)
let nudge rng (b : base) =
  let name, good = List.nth b.constraints (Random.State.int rng (List.length b.constraints)) in
  let sign = if Random.State.bool rng then 1.0 else -1.0 in
  (name, good *. (1.0 +. (sign *. (0.02 +. Random.State.float rng 0.03))))

type kind = Plain | Retarget | Resynth

type request = {
  client : int;
  idx : int;
  kind : kind;
  circuit : string;
  source : string;  (** for submits; the parent's for resynthesize *)
  seed : int;
  warm : (Json.t * (string * float)) option;
      (** resynthesize: the parent's result record and the re-targeted spec *)
  id : int option;
  t0 : int64;
  t1 : int64;  (** submit call to result record *)
  latency_s : float;
  record : Json.t option;
  error : string option;
}

let jnum k j = match Json.mem_opt k j with Some (Json.Num v) -> Some v | _ -> None
let jstr k j = match Json.mem_opt k j with Some (Json.Str s) -> Some s | _ -> None
let request_job c idx = ((c + 1) * 1_000_000) + idx

(* ---- one client ----------------------------------------------------------- *)

(* One request from submit to result record; every client call gets a span
   under the request's [serve.job] span when tracing. *)
let request ~socket ~rc ~client ~idx kind (b : base) ~source ~seed ?warm submit =
  let t0 = Span.now () in
  let job = request_job client idx in
  let id, record, error =
    fst
      (Span.timed rc ~parent:0 ~job "serve.job" (fun parent ->
           let span name f = fst (Span.timed rc ~parent ~job name (fun _ -> f ())) in
           match span "serve.submit" submit with
           | Error e -> (None, None, Some ("submit: " ^ e))
           | Ok id -> (
               let rec poll () =
                 match span "serve.status" (fun () -> Serve.Client.status ~socket id) with
                 | Error e -> Error e
                 | Ok job -> (
                     match jstr "state" job with
                     | Some ("queued" | "running") ->
                         span "serve.poll_sleep" (fun () -> Unix.sleepf poll_s);
                         poll ()
                     | Some _ -> Ok ()
                     | None -> Error "status carries no state")
               in
               match poll () with
               | Error e -> (Some id, None, Some ("status: " ^ e))
               | Ok () -> (
                   match span "serve.result" (fun () -> Serve.Client.result ~socket id) with
                   | Error e -> (Some id, None, Some ("result: " ^ e))
                   | Ok job -> (
                       match jstr "state" job with
                       | Some "done" -> (Some id, Some job, None)
                       | s ->
                           (Some id, Some job, Some ("job ended " ^ Option.value s ~default:"?")))
                   ))))
  in
  let t1 = Span.now () in
  let latency_s = Span.secs t0 t1 in
  {
    client; idx; kind; circuit = b.circuit; source; seed; warm; id; t0; t1; latency_s; record;
    error;
  }

let client ~socket ~rc ~bases ~seed ~deadline ~on_done c =
  let rng = Random.State.make [| seed; c |] in
  let rec loop idx prev acc =
    if Span.now () >= deadline then List.rev acc
    else
      let r =
        match prev with
        | Some (p : request) when idx mod 4 = 3 ->
            let b = List.find (fun (b : base) -> b.circuit = p.circuit) bases in
            let name, good = nudge rng b in
            let rz = resynth_spec (Option.get p.id) [ (name, good, None) ] in
            let warm = Option.map (fun parent -> (parent, (name, good))) p.record in
            request ~socket ~rc ~client:c ~idx Resynth b ~source:p.source ~seed:p.seed ?warm
              (fun () -> Serve.Client.resynthesize ~socket rz)
        | _ ->
            (* A fixed mix, so runs differ only in their seeds: circuits in
               rotation, and a third of the submits retargeted, spread evenly
               over the circuits. *)
            let p = idx - (idx / 4) in
            let b = List.nth bases ((p + c) mod List.length bases) in
            let seed = Random.State.int rng 1_000_000 in
            let kind, source =
              if List.mem (p mod 9) [ 2; 4; 6 ] then
                let name, good = nudge rng b in
                (Retarget, retarget b.source name good)
              else (Plain, b.source)
            in
            request ~socket ~rc ~client:c ~idx kind b ~source ~seed (fun () ->
                Serve.Client.submit ~socket (submit_spec ~name:b.circuit ~source ~seed ()))
      in
      on_done ();
      let prev = if r.kind <> Resynth && r.error = None then Some r else prev in
      loop (idx + 1) prev (r :: acc)
  in
  loop 0 None []

(* ---- the fixed preparatory batch ------------------------------------------ *)

(* Writes the state dir every boot replays, independent of the workload
   seed: six short jobs, one warm rerun, then [cancelled_jobs] submits
   cancelled while they wait behind a long job. A cancelled job costs no
   annealing but leaves a submit and a finish record in the journal, so
   the journal is long enough that replaying it, not process start, is
   most of a boot. *)
let cancelled_jobs = 240

let prepare ~dir =
  let state = Filename.concat dir "prep-state" in
  Unix.mkdir state 0o755;
  let d, _ = boot ~dir ~state in
  let check what = function
    | Ok v -> v
    | Error e -> failwith (Printf.sprintf "perfbench: preparatory %s failed: %s" what e)
  in
  let wait id = ignore (check "job" (Serve.Client.wait ~socket:d.socket ~poll_s:0.02 id)) in
  let submit i =
    let c = List.nth ota_class (i mod List.length ota_class) in
    let spec = submit_spec ~moves:200 ~name:c ~source:(base c).source ~seed:(1000 + i) () in
    check "submit" (Serve.Client.submit ~socket:d.socket spec)
  in
  let ids = List.init 6 submit in
  List.iter wait ids;
  wait
    (check "resynthesize"
       (Serve.Client.resynthesize ~socket:d.socket
          (resynth_spec (List.hd ids) [ ("pm", 62.0, None) ])));
  let cancel id = check "cancel" (Serve.Client.cancel ~socket:d.socket id) in
  let blocker =
    check "submit"
      (Serve.Client.submit ~socket:d.socket
         (submit_spec ~moves:1_000_000 ~name:"blocker" ~source:(base "ota").source ~seed:999 ()))
  in
  (* In batches that fit the daemon's queue (64 by default). *)
  for b = 0 to (cancelled_jobs / 40) - 1 do
    List.iter cancel (List.init 40 (fun i -> submit (7 + (40 * b) + i)))
  done;
  cancel blocker;
  wait blocker;
  stop d;
  state

(* ---- the run -------------------------------------------------------------- *)

let stats socket =
  match Serve.Client.stats ~socket () with
  | Ok j -> j
  | Error e -> failwith ("perfbench: stats failed: " ^ e)

let path_num path j =
  let rec go j = function
    | [] -> ( match j with Json.Num v -> v | _ -> 0.0)
    | k :: rest -> ( match Json.mem_opt k j with Some v -> go v rest | None -> 0.0)
  in
  go j path

let busy_s j =
  match Json.mem_opt "workers_detail" j with
  | Some (Json.Arr ws) -> List.fold_left (fun a w -> a +. path_num [ "busy_s" ] w) 0.0 ws
  | _ -> 0.0

(* The warm seed a resynthesize child anneals from: its parent's recorded
   winner, through the daemon's own conversion. Only the winner fields
   reach the seed; the rest of the entry labels it. *)
let warm_start_of parent =
  let arr k =
    match Json.mem_opt k parent with
    | Some (Json.Arr xs) ->
        Array.of_list (List.map (function Json.Num v -> v | _ -> Float.nan) xs)
    | _ -> [||]
  in
  Serve.Corpus.warm_start_of_entry
    {
      Serve.Corpus.en_shape = Option.value (jstr "shape" parent) ~default:"";
      en_canon = "";
      en_job = int_of_float (Option.value (jnum "id" parent) ~default:0.0);
      en_name = Option.value (jstr "name" parent) ~default:"";
      en_cost = Option.value (jnum "best_cost" parent) ~default:Float.nan;
      en_values = arr "winner_values";
      en_grid = Array.map int_of_float (arr "winner_grid");
      en_probs = arr "winner_probs";
    }

(* In-process rerun of a served job. A submit reruns with the same source,
   seed, moves and runs. A resynthesize reruns as the daemon runs it: the
   parent's problem with the one spec re-targeted (its bad target kept from
   the source), half the parent's moves, one restart warm from the
   parent's winner. *)
let rerun ?rc (r : request) =
  let job = request_job r.client r.idx in
  let span name f = fst (Span.timed rc ~parent:0 ~job name (fun _ -> f ())) in
  let ast = span "netlist.parse" (fun () -> Netlist.Parser.parse_problem r.source) in
  match span "compile" (fun () -> Core.Compile.compile ast) with
  | Error e -> Error e
  | Ok p ->
      let p, moves, warm_starts =
        match r.warm with
        | None -> (p, moves, [||])
        | Some (parent, (name, good)) ->
            let bad =
              (List.find (fun (s : Netlist.Ast.spec) -> s.spec_name = name) ast.Netlist.Ast.specs)
                .bad
            in
            let retarget (s : Core.Problem.spec) =
              if s.spec_name = name then { s with good; bad } else s
            in
            ( { p with Core.Problem.specs = List.map retarget p.Core.Problem.specs },
              moves / 2,
              [| warm_start_of parent |] )
      in
      let best_of () = Core.Oblx.best_of ~seed:r.seed ~moves ~jobs:1 ~runs:1 ~warm_starts p in
      Ok (fst (span "oblx.best_of" best_of))

(* Output check: the first submits and the first resynthesize of each
   client, rerun in-process, must reproduce the served best_cost bit for
   bit. *)
let recheck ?rc ok =
  let first n keep c =
    List.filteri (fun i _ -> i < n) (List.filter (fun r -> r.client = c && keep r.kind) ok)
  in
  let sample =
    List.concat_map
      (fun c -> first recheck_per_client (fun k -> k <> Resynth) c @ first 1 (( = ) Resynth) c)
      (List.init clients Fun.id)
  in
  let reruns = List.map (fun r -> (r, rerun ?rc r)) sample in
  let failures =
    List.filter_map
      (fun ((r : request), res) ->
        let served = Option.bind r.record (jnum "best_cost") in
        let id = Option.value r.id ~default:0 in
        match (res, served) with
        | Ok (b : Core.Oblx.result), Some c
          when Int64.bits_of_float b.best_cost = Int64.bits_of_float c ->
            None
        | Ok b, _ ->
            Some
              (Printf.sprintf "RERUN job %d (%s%s seed %d): served best_cost %s, in-process %.17g"
                 id r.circuit
                 (if r.kind = Resynth then " resynthesize" else "")
                 r.seed
                 (match served with Some c -> Printf.sprintf "%.17g" c | None -> "missing")
                 b.best_cost)
        | Error e, _ -> Some (Printf.sprintf "RERUN job %d: compile failed: %s" id e))
      reruns
  in
  (List.filter_map (fun (_, res) -> Result.to_option res) reruns, List.length reruns, failures)

(* Set-up: boot on a fresh copy of the prepared state, [boots] times; the
   last daemon stays up for the run. Returns it and every boot's spawn and
   first-answer times. *)
let set_up ~dir prep =
  let rec go i acc =
    let state = Filename.concat dir (Printf.sprintf "state-%d" i) in
    copy_dir prep state;
    let d, s = boot ~dir ~state in
    if i = boots then (d, s :: acc)
    else begin
      stop d;
      go (i + 1) (s :: acc)
    end
  in
  go 1 []

(* With [yard], an untraced run's times are reported in seconds at the
   yardstick's reference speed; [yard] runs from set-up until the last
   request completes. *)
let run ~work ~seed ~seconds ~trace ?yard ~spans_path () =
  let dir = Filename.concat work (Printf.sprintf "serve-%d" (Unix.getpid ())) in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  (* Removed at exit on every path, after the daemons are stopped. *)
  at_exit (fun () ->
      kill_live ();
      try rm_rf dir with Unix.Unix_error _ | Sys_error _ -> ());
  let d, boots = set_up ~dir (prepare ~dir) in
  let bases = List.map base ota_class in
  let rc = if trace then Some (Span.create ()) else None in
  let before = stats d.socket in
  let t0 = Span.now () in
  let deadline = Int64.add t0 (Int64.of_float (seconds *. 1e9)) in
  let hwm () = Report.vm_hwm_mb (string_of_int d.pid) in
  let completed = Atomic.make 0 and rss = ref None in
  let on_done () =
    if Atomic.fetch_and_add completed 1 + 1 = rss_after_requests then rss := Some (hwm ())
  in
  let results = Array.make clients [] in
  let threads =
    List.init clients (fun c ->
        Thread.create
          (fun () -> results.(c) <- client ~socket:d.socket ~rc ~bases ~seed ~deadline ~on_done c)
          ())
  in
  List.iter Thread.join threads;
  let t1 = Span.now () in
  let window = Span.secs t0 t1 in
  let ys = Option.map Yard.stop yard in
  let after = stats d.socket in
  let rss = match !rss with Some r -> r | None -> hwm () in
  stop d;
  let reqs = List.concat (Array.to_list results) in
  let n = List.length reqs in
  let ok = List.filter (fun r -> r.error = None) reqs in
  let results, rechecked, recheck_fail = recheck ?rc ok in
  let failed = n - List.length ok + List.length recheck_fail in
  let lat = List.map (fun r -> r.latency_s) ok in
  let scale a b = match ys with Some ys -> Yard.scale ys a b | None -> Span.secs a b in
  let scaled_lat = List.map (fun r -> scale r.t0 r.t1) ok in
  let fails =
    List.filter_map
      (fun r ->
        Option.map
          (fun e -> Printf.sprintf "FAILED request %d.%d (%s): %s" r.client r.idx r.circuit e)
          r.error)
      reqs
  in
  let count k = List.length (List.filter (fun r -> r.kind = k) reqs) in
  let lines =
    [
      (match Stat.tail scaled_lat with
      | Some (pct, v) ->
          Printf.sprintf "job_s_tail %.4f s (p%d of %d jobs, 10 beyond)" v pct (List.length lat)
      | None -> Printf.sprintf "job_s_tail omitted (%d jobs; needs 20)" (List.length lat));
      Printf.sprintf "wall clock: jobs_per_s %.4f /s, job_s_p50 %.4f s, setup_s %.6f s%s"
        (float_of_int (List.length ok) /. window)
        (Stat.median lat)
        (Stat.median (List.map (fun (a, b) -> Span.secs a b) boots))
        (match ys with
        | Some ys ->
            Printf.sprintf "; the CPU ran at %.2f of reference speed (%d yardstick samples)"
              (Yard.speed ys) (Array.length ys)
        | None -> "");
      Printf.sprintf "fail_frac %.4f (%d of %d requests)" (Stat.ratio failed n) failed n;
      "specs_met_frac, pred_sim_agree_frac: not measured on serve-mix (synth only)";
      Printf.sprintf
        "requests: %d plain, %d retargeted, %d resynthesize; %d of %d sampled jobs (submits \
         and resynthesizes) rerun bit-identical"
        (count Plain) (count Retarget) (count Resynth)
        (rechecked - List.length recheck_fail)
        rechecked;
    ]
    @ fails @ recheck_fail
  in
  match rc with
  | None ->
      {
        Report.attempted = n;
        failed;
        metrics =
          [
            Report.m "setup_s" "s" (Stat.median (List.map (fun (a, b) -> scale a b) boots));
            Report.m "jobs_per_s" "1/s" (float_of_int (List.length ok) /. scale t0 t1);
            Report.m "job_s_p50" "s" (Stat.median scaled_lat);
            Report.m "peak_rss_mb" "MB" rss;
          ];
        lines;
      }
  | Some r ->
      Span.write r spans_path;
      let recs = List.filter_map (fun q -> q.record) ok in
      let per_rec f = Stat.mean (List.map f recs) in
      let field k j = Option.value (jnum k j) ~default:0.0 in
      let per_call name =
        1000.0 *. Span.total r name /. float_of_int (Int.max 1 (Span.count r name))
      in
      let per_ok x = x /. float_of_int (Int.max 1 (List.length ok)) in
      let overshoot =
        Stat.mean
          (List.filter_map
             (fun q ->
               Option.map (fun j -> q.latency_s -. field "wait_s" j -. field "run_s" j) q.record)
             ok)
      in
      let delta path = path_num path after -. path_num path before in
      let hits = delta [ "cache"; "hits" ] and misses = delta [ "cache"; "misses" ] in
      let tol = 0.03 in
      let gap, bad =
        Span.reconcile r ~parent_name:"serve.job"
          ~children:[ "serve.submit"; "serve.status"; "serve.poll_sleep"; "serve.result" ]
          ~tol
      in
      let per_rerun name = Span.total r name /. float_of_int (Int.max 1 (List.length results)) in
      (* Span-recording cost, measured here, times the run's spans. *)
      let probe = Span.create () in
      let t = Span.now () in
      for _ = 1 to 10_000 do
        ignore (Span.timed (Some probe) ~parent:0 ~job:0 "x" (fun _ -> ()))
      done;
      let per_span = Span.secs t (Span.now ()) /. 10_000.0 in
      let metrics =
        Synth.eval_metrics results ~oblx_s:(per_rerun "oblx.best_of")
        @ [
            Report.m "netlist.parse_ms" "ms" (1000.0 *. per_rerun "netlist.parse");
            Report.m "compile.ms" "ms" (1000.0 *. per_rerun "compile");
            Report.m "serve.wait_s" "s" (per_rec (field "wait_s"));
            Report.m "serve.run_s" "s" (per_rec (field "run_s"));
            Report.m "serve.overshoot_s" "s" overshoot;
            Report.m "serve.submit_ms" "ms" (per_call "serve.submit");
            Report.m "serve.status_ms" "ms" (per_call "serve.status");
            Report.m "serve.result_ms" "ms" (per_call "serve.result");
            Report.m "serve.status_per_job" "count"
              (per_ok (float_of_int (Span.count r "serve.status")));
            Report.m "serve.worker_busy_frac" "ratio" ((busy_s after -. busy_s before) /. window);
            Report.m "compile_cache.hit_frac" "ratio"
              (if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0);
            Report.m "journal.bytes_per_job" "bytes" (per_ok (delta [ "journal"; "bytes" ]));
            Report.m "serve.warm_frac" "ratio"
              (per_rec (fun j -> if jstr "warm" j <> None then 1.0 else 0.0));
            Report.m "serve.rejected" "count" (delta [ "jobs"; "rejected" ]);
            Report.m "trace.overhead_frac" "ratio"
              (float_of_int (List.length (Span.spans r)) *. per_span /. Stat.sum lat);
          ]
      in
      let bad_lines =
        List.map
          (fun k ->
            Printf.sprintf "RECONCILE request %d: client spans miss its latency by more than %.0f%%"
              k (100.0 *. tol))
          bad
      in
      {
        Report.attempted = n;
        failed = failed + List.length bad;
        metrics;
        lines =
          lines
          @ [
              Printf.sprintf "reconcile: worst request gap %.2f%% (limit %.0f%%)" (100.0 *. gap)
                (100.0 *. tol);
              Printf.sprintf "spans in %s" spans_path;
            ]
          @ bad_lines;
      }
