(* Tests for the synthesis service: protocol codec, compile cache, pool
   queue discipline (backpressure, priorities, cancellation, deadlines),
   and the socket daemon end to end. *)

let ota_source = (Option.get (Suite.Ckts.find "simple-ota")).Suite.Ckts.source

let submission ?(name = "simple-ota") ?(source = ota_source) ?(seed = 1) ?moves ?(runs = 1)
    ?(priority = 0) ?deadline_s ?(trace = false) ?shard () =
  {
    Serve.Proto.sb_name = name;
    sb_source = source;
    sb_seed = seed;
    sb_moves = moves;
    sb_runs = runs;
    sb_priority = priority;
    sb_deadline_s = deadline_s;
    sb_trace = trace;
    sb_shard = shard;
    sb_sweep = [];
    sb_warm = [];
    sb_spec_overrides = [];
  }

let jnum j k =
  match Obs.Json.mem_opt k j with Some (Obs.Json.Num v) -> Some v | _ -> None

let jstr j k =
  match Obs.Json.mem_opt k j with Some (Obs.Json.Str s) -> Some s | _ -> None

let ok = function Ok v -> v | Error e -> Alcotest.failf "unexpected error: %s" e

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* --- Protocol --- *)

let test_proto_round_trip () =
  let requests =
    [
      Serve.Proto.Submit
        (submission ~name:"x" ~source:"src" ~seed:7 ~moves:123 ~runs:3 ~priority:2
           ~deadline_s:1.5 ~trace:true ());
      Serve.Proto.Submit (submission ~source:"s" ());
      Serve.Proto.Status 4;
      Serve.Proto.Result 0;
      Serve.Proto.Cancel 91;
      Serve.Proto.Stats;
      Serve.Proto.Shutdown;
    ]
  in
  List.iter
    (fun req ->
      match Serve.Proto.request_of_json (Serve.Proto.request_to_json req) with
      | Ok req' -> Alcotest.(check bool) "request survives the wire" true (req = req')
      | Error e -> Alcotest.failf "decode failed: %s" e)
    requests

let test_proto_lenient_defaults () =
  let decode s =
    match Obs.Json.of_string s with
    | Ok j -> Serve.Proto.request_of_json j
    | Error e -> Alcotest.failf "json: %s" e
  in
  (match decode {|{"op":"submit","source":"body"}|} with
  | Ok (Serve.Proto.Submit s) ->
      Alcotest.(check int) "default seed" 1 s.Serve.Proto.sb_seed;
      Alcotest.(check int) "default runs" 1 s.sb_runs;
      Alcotest.(check int) "default priority" 0 s.sb_priority;
      Alcotest.(check bool) "default moves" true (s.sb_moves = None);
      Alcotest.(check bool) "default deadline" true (s.sb_deadline_s = None);
      Alcotest.(check bool) "default trace" false s.sb_trace
  | Ok _ -> Alcotest.fail "wrong request"
  | Error e -> Alcotest.failf "decode: %s" e);
  (* Shape errors are decode errors, never exceptions. *)
  List.iter
    (fun s ->
      match decode s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected decode error for %s" s)
    [
      {|{"op":"submit"}|};
      {|{"op":"status"}|};
      {|{"op":"cancel","id":"three"}|};
      {|{"op":"frobnicate"}|};
      {|{"op":"submit","source":"s","seed":"high"}|};
    ]

(* --- Compile cache --- *)

(* [compile] failures carry the cache outcome too; unwrap successes. *)
let cok = function
  | Ok v -> v
  | Error (e, _) -> Alcotest.failf "unexpected compile error: %s" e

let test_cache_hit_miss () =
  let cache = Core.Compile_cache.create ~capacity:4 () in
  let _, o1 = cok (Core.Compile_cache.compile cache ~source:ota_source ()) in
  let _, o2 = cok (Core.Compile_cache.compile cache ~source:ota_source ()) in
  Alcotest.(check bool) "first is a miss" true (o1 = Core.Compile_cache.Miss);
  Alcotest.(check bool) "second is a hit" true (o2 = Core.Compile_cache.Hit);
  (* Cosmetic edits (comment, title) hit the same entry. *)
  let _, o3 =
    cok (Core.Compile_cache.compile cache ~source:("* cosmetic comment\n" ^ ota_source) ())
  in
  Alcotest.(check bool) "comment-only edit hits" true (o3 = Core.Compile_cache.Hit);
  let st = Core.Compile_cache.stats cache in
  Alcotest.(check int) "hits" 2 st.Core.Compile_cache.hits;
  Alcotest.(check int) "misses" 1 st.Core.Compile_cache.misses;
  Alcotest.(check int) "entries" 1 st.Core.Compile_cache.entries

let test_cache_remembers_failures () =
  (* Parses fine but fails semantic compilation: unknown model. *)
  let broken =
    ".jig j\nm1 d g 0 0 nosuchmodel w=10u l=1u\nvin d 0 1 ac 1\n.pz t v(d) vin\n.endjig\n\
     .bias\nr1 x 0 1\n.endbias\n.obj o 'dc_gain(t)' good=1 bad=0\n"
  in
  let cache = Core.Compile_cache.create ~capacity:4 () in
  let r1 = Core.Compile_cache.compile cache ~source:broken () in
  let r2 = Core.Compile_cache.compile cache ~source:broken () in
  (match (r1, r2) with
  | Error (e1, o1), Error (e2, o2) ->
      Alcotest.(check string) "same error replayed" e1 e2;
      (* Regression: the error branch reports the true cache outcome — a
         replayed failure is a hit, not a miss. *)
      Alcotest.(check bool) "first failure is a miss" true (o1 = Core.Compile_cache.Miss);
      Alcotest.(check bool) "replayed failure is a hit" true (o2 = Core.Compile_cache.Hit)
  | _ -> Alcotest.fail "expected compile errors");
  let st = Core.Compile_cache.stats cache in
  Alcotest.(check int) "second lookup hit the cached failure" 1 st.Core.Compile_cache.hits;
  Alcotest.(check int) "compiled once" 1 st.Core.Compile_cache.misses;
  (* A parse error is not cacheable (no canonical form to key on). *)
  match Core.Compile_cache.compile cache ~source:".frobnicate\n" () with
  | Error (_, Core.Compile_cache.Miss) -> ()
  | Error (_, Core.Compile_cache.Hit) -> Alcotest.fail "parse errors must never report a hit"
  | Ok _ -> Alcotest.fail "expected parse error"

let test_cache_lru_eviction () =
  let cache = Core.Compile_cache.create ~capacity:1 () in
  let other = (Option.get (Suite.Ckts.find "ota")).Suite.Ckts.source in
  let _ = cok (Core.Compile_cache.compile cache ~source:ota_source ()) in
  let _ = cok (Core.Compile_cache.compile cache ~source:other ()) in
  let _, o3 = cok (Core.Compile_cache.compile cache ~source:ota_source ()) in
  Alcotest.(check bool) "evicted entry misses again" true (o3 = Core.Compile_cache.Miss);
  let st = Core.Compile_cache.stats cache in
  Alcotest.(check int) "evictions" 2 st.Core.Compile_cache.evictions;
  Alcotest.(check int) "capacity bound holds" 1 st.Core.Compile_cache.entries

(* --- Pool --- *)

(* workers = 0: jobs stay queued, so queue discipline is observable without
   racing real synthesis. *)
let frozen_pool ?(queue_capacity = 2) () =
  Serve.Pool.create
    {
      Serve.Pool.default_config with
      workers = 0;
      queue_capacity;
      state_dir = None;
    }

let test_pool_backpressure () =
  let pool = frozen_pool ~queue_capacity:2 () in
  let id0 = ok (Serve.Pool.submit pool (submission ())) in
  let _ = ok (Serve.Pool.submit pool (submission ())) in
  (match Serve.Pool.submit pool (submission ()) with
  | Error reason ->
      Alcotest.(check bool) "rejection explains itself" true
        (String.length reason > 0
        && String.sub reason 0 (String.length "queue full") = "queue full")
  | Ok _ -> Alcotest.fail "third submission must be rejected");
  (* Draining one queued job frees a slot. *)
  ok (Serve.Pool.cancel pool id0);
  let _ = ok (Serve.Pool.submit pool (submission ())) in
  (* Invalid submissions are rejected up front, not enqueued. *)
  (match Serve.Pool.submit pool (submission ~runs:0 ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "runs=0 must be rejected");
  (match Serve.Pool.submit pool (submission ~source:"  " ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty source must be rejected");
  Serve.Pool.shutdown pool

let test_pool_priority_order () =
  let pool = frozen_pool ~queue_capacity:8 () in
  let low = ok (Serve.Pool.submit pool (submission ~priority:0 ())) in
  let high = ok (Serve.Pool.submit pool (submission ~priority:5 ())) in
  let mid = ok (Serve.Pool.submit pool (submission ~priority:3 ())) in
  let pos id =
    match jnum (ok (Serve.Pool.status_json pool id)) "queue_position" with
    | Some p -> int_of_float p
    | None -> Alcotest.failf "job %d not queued" id
  in
  Alcotest.(check int) "high first" 0 (pos high);
  Alcotest.(check int) "mid second" 1 (pos mid);
  Alcotest.(check int) "low last" 2 (pos low);
  Serve.Pool.shutdown pool

let test_pool_cancel_queued () =
  let pool = frozen_pool ~queue_capacity:4 () in
  let id = ok (Serve.Pool.submit pool (submission ())) in
  ok (Serve.Pool.cancel pool id);
  let j = ok (Serve.Pool.result_json pool id) in
  Alcotest.(check (option string)) "state" (Some "cancelled") (jstr j "state");
  (* Cancelling twice is an error (already cancelled), as is an unknown id. *)
  (match Serve.Pool.cancel pool id with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "double cancel must fail");
  (match Serve.Pool.cancel pool 999 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unknown id must fail");
  Serve.Pool.shutdown pool

let running_pool () =
  Serve.Pool.create
    { Serve.Pool.default_config with workers = 1; queue_capacity = 16; state_dir = None }

let rec wait_done pool id =
  let j = ok (Serve.Pool.status_json pool id) in
  match jstr j "state" with
  | Some ("queued" | "running") ->
      Unix.sleepf 0.02;
      wait_done pool id
  | Some s -> s
  | None -> Alcotest.fail "no state"

let test_pool_deadline_cut () =
  let pool = running_pool () in
  (* A move budget far beyond what 0.2 s allows: the deadline must cut it,
     and the record must say so. *)
  let id =
    ok (Serve.Pool.submit pool (submission ~moves:10_000_000 ~deadline_s:0.2 ()))
  in
  let state = wait_done pool id in
  let j = ok (Serve.Pool.result_json pool id) in
  Alcotest.(check string) "finished" "done" state;
  Alcotest.(check (option string)) "cut by the deadline"
    (Some Core.Oblx.deadline_reason) (jstr j "cut_reason");
  Alcotest.(check bool) "still reports a best design" true (jnum j "best_cost" <> None);
  Serve.Pool.shutdown pool

let test_pool_determinism_and_trace () =
  let pool = running_pool () in
  let moves = 400 in
  let id = ok (Serve.Pool.submit pool (submission ~seed:5 ~moves ~trace:true ())) in
  let state = wait_done pool id in
  Alcotest.(check string) "finished" "done" state;
  let j = ok (Serve.Pool.result_json pool id) in
  (* Bit-for-bit against the CLI path: the service's abort plumbing must not
     perturb a run it never cuts. *)
  let p =
    match Core.Compile.compile_source ota_source with
    | Ok p -> p
    | Error e -> Alcotest.failf "compile: %s" e
  in
  let local, _ = Core.Oblx.best_of ~seed:5 ~moves ~jobs:1 ~runs:1 p in
  (match jnum j "best_cost" with
  | Some served ->
      Alcotest.(check bool) "served = local, bit for bit" true
        (Int64.bits_of_float served = Int64.bits_of_float local.Core.Oblx.best_cost)
  | None -> Alcotest.fail "no best_cost");
  (* trace:true attaches the stage-event ring to the record. *)
  (match Obs.Json.mem_opt "events" j with
  | Some (Obs.Json.Arr evs) -> Alcotest.(check bool) "events captured" true (evs <> [])
  | _ -> Alcotest.fail "no events array");
  Serve.Pool.shutdown pool

let test_pool_shutdown_cancels_queued () =
  let pool = frozen_pool ~queue_capacity:4 () in
  let id = ok (Serve.Pool.submit pool (submission ())) in
  Serve.Pool.shutdown pool;
  let j = ok (Serve.Pool.result_json pool id) in
  Alcotest.(check (option string)) "queued job cancelled" (Some "cancelled")
    (jstr j "state");
  (match Serve.Pool.submit pool (submission ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "submissions after shutdown must be rejected");
  (* Idempotent. *)
  Serve.Pool.shutdown pool

let test_pool_wait_s_on_cancelled_queued () =
  let pool = frozen_pool ~queue_capacity:4 () in
  let id = ok (Serve.Pool.submit pool (submission ())) in
  Unix.sleepf 0.05;
  ok (Serve.Pool.cancel pool id);
  let j = ok (Serve.Pool.result_json pool id) in
  Alcotest.(check (option string)) "cancelled" (Some "cancelled") (jstr j "state");
  (* Regression: a job cancelled while still queued spent real time
     waiting; its record must report that wait, not 0. *)
  (match jnum j "wait_s" with
  | Some w -> Alcotest.(check bool) "wait_s covers the queue time" true (w >= 0.04 && w < 10.0)
  | None -> Alcotest.fail "no wait_s");
  Serve.Pool.shutdown pool

(* Parses fine but fails semantic compilation (unknown model) — the shape
   of failure the compile cache replays. *)
let broken_source =
  ".jig j\nm1 d g 0 0 nosuchmodel w=10u l=1u\nvin d 0 1 ac 1\n.pz t v(d) vin\n.endjig\n\
   .bias\nr1 x 0 1\n.endbias\n.obj o 'dc_gain(t)' good=1 bad=0\n"

let test_pool_failed_job_cache_outcome () =
  let pool = running_pool () in
  let id1 = ok (Serve.Pool.submit pool (submission ~source:broken_source ())) in
  Alcotest.(check string) "first failed" "failed" (wait_done pool id1);
  let id2 = ok (Serve.Pool.submit pool (submission ~source:broken_source ())) in
  Alcotest.(check string) "second failed" "failed" (wait_done pool id2);
  let j1 = ok (Serve.Pool.result_json pool id1) in
  let j2 = ok (Serve.Pool.result_json pool id2) in
  (* Regression: the compile-failure path records the real cache outcome
     instead of unconditionally claiming a miss. *)
  Alcotest.(check (option string)) "first failure missed the cache" (Some "miss")
    (jstr j1 "cache");
  Alcotest.(check (option string)) "replayed failure hit the cache" (Some "hit")
    (jstr j2 "cache");
  Alcotest.(check bool) "error preserved" true (jstr j2 "error" <> None);
  Serve.Pool.shutdown pool

(* --- Durable job log: restart replay --- *)

let dir_counter = ref 0

let temp_state_dir tag =
  incr dir_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "oblxd-%s-%d-%d" tag (Unix.getpid ()) !dir_counter)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let test_pool_restart_replay () =
  let dir = temp_state_dir "replay" in
  rm_rf dir;
  let cfg workers =
    { Serve.Pool.default_config with workers; queue_capacity = 8; state_dir = Some dir }
  in
  let pool_a = Serve.Pool.create (cfg 1) in
  let id = ok (Serve.Pool.submit pool_a (submission ~moves:300 ())) in
  (* A traced job's stage events ride on its finish line, so they replay
     too. *)
  let traced = ok (Serve.Pool.submit pool_a (submission ~seed:3 ~moves:300 ~trace:true ())) in
  Alcotest.(check string) "job finished" "done" (wait_done pool_a id);
  Alcotest.(check string) "traced job finished" "done" (wait_done pool_a traced);
  let ja = ok (Serve.Pool.result_json pool_a id) in
  let ta = ok (Serve.Pool.result_json pool_a traced) in
  let cost_a =
    match jnum ja "best_cost" with
    | Some c -> c
    | None -> Alcotest.fail "no best_cost before restart"
  in
  (match Obs.Json.mem_opt "events" ta with
  | Some (Obs.Json.Arr (_ :: _)) -> ()
  | _ -> Alcotest.fail "traced job carries no events before restart");
  Serve.Pool.shutdown pool_a;
  (* Restart over the same state_dir: the journal replays the finished
     jobs, so their ids still answer — with the same result, bit for bit. *)
  let pool_b = Serve.Pool.create (cfg 0) in
  let jb = ok (Serve.Pool.result_json pool_b id) in
  Alcotest.(check (option string)) "replayed state" (Some "done") (jstr jb "state");
  (match jnum jb "best_cost" with
  | Some c ->
      Alcotest.(check bool) "replayed cost bit-identical" true
        (Int64.bits_of_float c = Int64.bits_of_float cost_a)
  | None -> Alcotest.fail "replayed record lost best_cost");
  Alcotest.(check (option string)) "cache outcome survives" (jstr ja "cache")
    (jstr jb "cache");
  Alcotest.(check string) "replayed record string-identical" (Obs.Json.to_string ja)
    (Obs.Json.to_string jb);
  Alcotest.(check string) "replayed traced record string-identical, events included"
    (Obs.Json.to_string ta)
    (Obs.Json.to_string (ok (Serve.Pool.result_json pool_b traced)));
  let stats = Serve.Pool.stats_json pool_b in
  Alcotest.(check (option (float 0.0))) "restored counter" (Some 2.0)
    (jnum stats "restored_jobs");
  Alcotest.(check (option (float 0.0))) "no journal line rejected" (Some 0.0)
    (jnum (Option.get (Obs.Json.mem_opt "journal" stats)) "rejected");
  (* Fresh ids continue past the replayed ones — no ambiguity. *)
  let id2 = ok (Serve.Pool.submit pool_b (submission ())) in
  Alcotest.(check bool) "ids continue past replayed ones" true (id2 > traced);
  Serve.Pool.shutdown pool_b;
  rm_rf dir

let test_pool_restart_interrupted () =
  let dir = temp_state_dir "interrupted" in
  rm_rf dir;
  let cfg () =
    { Serve.Pool.default_config with workers = 0; queue_capacity = 8; state_dir = Some dir }
  in
  (* A frozen pool leaves the job queued; abandoning it without shutdown
     simulates a daemon crash mid-queue. *)
  let crashed = Serve.Pool.create (cfg ()) in
  let id = ok (Serve.Pool.submit crashed (submission ())) in
  let pool = Serve.Pool.create (cfg ()) in
  let j = ok (Serve.Pool.result_json pool id) in
  Alcotest.(check (option string)) "interrupted job failed" (Some "failed")
    (jstr j "state");
  Alcotest.(check (option string)) "blames the restart" (Some "daemon restarted")
    (jstr j "error");
  (match jnum (Serve.Pool.stats_json pool) "restored_jobs" with
  | Some n -> Alcotest.(check bool) "restored counted" true (n >= 1.0)
  | None -> Alcotest.fail "no restored_jobs in stats");
  Serve.Pool.shutdown pool;
  (* The verdict is itself journaled: a second restart still answers. *)
  let pool2 = Serve.Pool.create (cfg ()) in
  let j2 = ok (Serve.Pool.result_json pool2 id) in
  Alcotest.(check (option string)) "verdict survives a second restart" (Some "failed")
    (jstr j2 "state");
  Serve.Pool.shutdown pool2;
  rm_rf dir

(* --- Daemon over the socket --- *)

let test_server_end_to_end () =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "oblxd-test-%d.sock" (Unix.getpid ()))
  in
  let cfg =
    {
      Serve.Server.socket_path = socket;
      tcp = None;
      auth_token = None;
      max_connections = Serve.Server.default_max_connections;
      idle_timeout_s = Serve.Server.default_idle_timeout_s;
      pool =
        { Serve.Pool.default_config with workers = 1; queue_capacity = 8; state_dir = None };
    }
  in
  let ready_m = Mutex.create () and ready_c = Condition.create () in
  let ready = ref false in
  let server =
    Domain.spawn (fun () ->
        Serve.Server.run
          ~ready:(fun () ->
            Mutex.lock ready_m;
            ready := true;
            Condition.signal ready_c;
            Mutex.unlock ready_m)
          cfg)
  in
  Mutex.lock ready_m;
  while not !ready do
    Condition.wait ready_c ready_m
  done;
  Mutex.unlock ready_m;
  (* Submit twice: the second compile must hit the cache. *)
  let id1 = ok (Serve.Client.submit ~socket (submission ~moves:300 ())) in
  let j1 = ok (Serve.Client.wait ~socket id1) in
  Alcotest.(check (option string)) "first done" (Some "done") (jstr j1 "state");
  Alcotest.(check (option string)) "first missed the cache" (Some "miss") (jstr j1 "cache");
  let id2 = ok (Serve.Client.submit ~socket (submission ~moves:300 ~seed:2 ())) in
  let j2 = ok (Serve.Client.wait ~socket id2) in
  Alcotest.(check (option string)) "second hit the cache" (Some "hit") (jstr j2 "cache");
  (* Malformed and protocol-error requests answer with ok:false, and the
     connection-per-request model survives them. *)
  (match Serve.Client.request ~socket (Obs.Json.Str "not a request") with
  | Ok resp -> Alcotest.(check bool) "error response" true (Serve.Proto.response_error resp <> None)
  | Error e -> Alcotest.failf "transport error: %s" e);
  (match Serve.Client.status ~socket 999 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown id must be an error");
  (* Stats reflect the two finished jobs and the cache hit. *)
  let stats = ok (Serve.Client.stats ~socket ()) in
  let jobs = Option.get (Obs.Json.mem_opt "jobs" stats) in
  Alcotest.(check (option (float 0.0))) "two done" (Some 2.0) (jnum jobs "done");
  let cache = Option.get (Obs.Json.mem_opt "cache" stats) in
  Alcotest.(check bool) "hit rate > 0"
    true
    (match jnum cache "hit_rate" with Some r -> r > 0.0 | None -> false);
  ok (Serve.Client.shutdown ~socket ());
  Domain.join server;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists socket);
  (* A client against a dead daemon gets a clear error, not a hang. *)
  match Serve.Client.stats ~socket () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "dead daemon must be an error"

(* Boot a daemon on a fresh socket, run [f socket], always drain it. *)
let sock_counter = ref 0

let with_server ?(workers = 0) ?(max_connections = Serve.Server.default_max_connections)
    ?(idle_timeout_s = Serve.Server.default_idle_timeout_s) f =
  incr sock_counter;
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "oblxd-t%d-%d.sock" (Unix.getpid ()) !sock_counter)
  in
  let cfg =
    {
      Serve.Server.socket_path = socket;
      tcp = None;
      auth_token = None;
      max_connections;
      idle_timeout_s;
      pool =
        { Serve.Pool.default_config with workers; queue_capacity = 8; state_dir = None };
    }
  in
  let ready_m = Mutex.create () and ready_c = Condition.create () in
  let ready = ref false in
  let server =
    Domain.spawn (fun () ->
        Serve.Server.run
          ~ready:(fun () ->
            Mutex.lock ready_m;
            ready := true;
            Condition.signal ready_c;
            Mutex.unlock ready_m)
          cfg)
  in
  Mutex.lock ready_m;
  while not !ready do
    Condition.wait ready_c ready_m
  done;
  Mutex.unlock ready_m;
  (* The daemon frees a closed connection's slot only once that
     connection's thread has read its EOF, so a shutdown sent right after
     [f] closed its own connections can still find every slot held and be
     turned away at the cap ("retry shortly"). Retry it: a lost shutdown
     would leave [Domain.join] waiting forever. *)
  let rec stop tries =
    match Serve.Client.shutdown ~socket () with
    | Error e when contains e "connection capacity" ->
        if tries = 0 then Alcotest.failf "shutdown still refused: %s" e;
        Unix.sleepf 0.05;
        stop (tries - 1)
    | Ok () | Error _ -> Domain.join server
  in
  Fun.protect ~finally:(fun () -> stop 200) (fun () -> f socket)

let connect_raw socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

let raw_response reader =
  match Serve.Proto.read_line reader with
  | Some line -> (
      match Obs.Json.of_string line with
      | Ok j -> j
      | Error e -> Alcotest.failf "bad response json: %s" e)
  | None -> Alcotest.fail "connection closed before a response"

let test_server_concurrent_clients () =
  with_server (fun socket ->
      (* An idle connection holds a slot but must not block other clients —
         the serial accept loop this server replaced would hang here. *)
      let idle = connect_raw socket in
      let stats = ok (Serve.Client.stats ~socket ~timeout_s:2.0 ()) in
      Alcotest.(check bool) "stats answered while another client idles" true
        (Obs.Json.mem_opt "jobs" stats <> None);
      (* Two simultaneous connections, both answered on their own socket. *)
      let a = connect_raw socket and b = connect_raw socket in
      let ra = Serve.Proto.line_reader a and rb = Serve.Proto.line_reader b in
      Serve.Proto.write_line a (Serve.Proto.request_to_json Serve.Proto.Stats);
      Serve.Proto.write_line b (Serve.Proto.request_to_json Serve.Proto.Stats);
      Alcotest.(check bool) "first connection answered" true
        (Serve.Proto.response_error (raw_response ra) = None);
      Alcotest.(check bool) "second connection answered" true
        (Serve.Proto.response_error (raw_response rb) = None);
      (* A connection serves several requests back to back. *)
      Serve.Proto.write_line a (Serve.Proto.request_to_json (Serve.Proto.Status 999));
      Alcotest.(check bool) "second request on the same connection" true
        (Serve.Proto.response_error (raw_response ra) <> None);
      List.iter Unix.close [ idle; a; b ])

let test_server_connection_cap () =
  with_server ~max_connections:2 (fun socket ->
      let a = connect_raw socket in
      let b = connect_raw socket in
      (* The listener registers connections in accept order, so by the time
         a third connect is accepted both slots are held. *)
      (match Serve.Client.stats ~socket ~timeout_s:2.0 () with
      | Error e ->
          Alcotest.(check bool) "busy error names the cap" true
            (contains e "connection capacity")
      | Ok _ -> Alcotest.fail "over-cap connection must be refused");
      (* Closing a held connection frees its slot. *)
      Unix.close a;
      let rec retry n =
        match Serve.Client.stats ~socket ~timeout_s:2.0 () with
        | Ok _ -> ()
        | Error _ when n > 0 ->
            Unix.sleepf 0.05;
            retry (n - 1)
        | Error e -> Alcotest.failf "slot never freed: %s" e
      in
      retry 40;
      Unix.close b)

let test_server_idle_timeout () =
  with_server ~idle_timeout_s:0.3 (fun socket ->
      let fd = connect_raw socket in
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
      let t0 = Unix.gettimeofday () in
      let reader = Serve.Proto.line_reader fd in
      (match Serve.Proto.read_line reader with
      | None -> ()
      | Some _ -> Alcotest.fail "idle connection must be closed, not answered");
      let dt = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool) "closed after roughly the idle timeout" true
        (dt >= 0.2 && dt < 4.0);
      Unix.close fd;
      (* The slot is back and the daemon keeps serving. *)
      ignore (ok (Serve.Client.stats ~socket ())))

let test_client_error_attribution () =
  (* Connect failure: daemon not running / wrong path. *)
  (match Serve.Client.stats ~socket:"/nonexistent-dir/oblxd.sock" () with
  | Error e ->
      Alcotest.(check bool) "connect failure says cannot reach" true
        (contains e "cannot reach")
  | Ok _ -> Alcotest.fail "connect must fail");
  (* Regression: a socket that accepts (kernel backlog) but never answers
     is a response timeout — "did not respond" — not a reachability
     problem. *)
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "oblxd-mute-%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX path);
  Unix.listen listener 4;
  (match Serve.Client.stats ~socket:path ~timeout_s:0.3 () with
  | Error e ->
      Alcotest.(check bool) "timeout says did not respond" true
        (contains e "did not respond");
      Alcotest.(check bool) "timeout not misattributed to reachability" false
        (contains e "cannot reach")
  | Ok _ -> Alcotest.fail "mute daemon must time out");
  Unix.close listener;
  Unix.unlink path

(* --- TCP transport, auth, rotation --- *)

(* Boot a daemon with a TCP listener on an ephemeral loopback port (plus
   its Unix socket). Returns both endpoints and a shutdown closure. *)
type daemon = {
  d_unix : string;
  d_tcp : string;  (** "tcp:127.0.0.1:PORT" client endpoint *)
  d_stop : unit -> unit;
}

let boot_daemon ?(workers = 1) ?auth_token () =
  incr sock_counter;
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "oblxd-tcp%d-%d.sock" (Unix.getpid ()) !sock_counter)
  in
  let cfg =
    {
      Serve.Server.socket_path = socket;
      tcp = Some ("127.0.0.1", 0);
      auth_token;
      max_connections = Serve.Server.default_max_connections;
      idle_timeout_s = Serve.Server.default_idle_timeout_s;
      pool = { Serve.Pool.default_config with workers; queue_capacity = 16; state_dir = None };
    }
  in
  let ready_m = Mutex.create () and ready_c = Condition.create () in
  let ready = ref false in
  let port = ref 0 in
  let server =
    Domain.spawn (fun () ->
        Serve.Server.run
          ~tcp_port:(fun p -> port := p)
          ~ready:(fun () ->
            Mutex.lock ready_m;
            ready := true;
            Condition.signal ready_c;
            Mutex.unlock ready_m)
          cfg)
  in
  Mutex.lock ready_m;
  while not !ready do
    Condition.wait ready_c ready_m
  done;
  Mutex.unlock ready_m;
  let stopped = ref false in
  {
    d_unix = socket;
    d_tcp = Printf.sprintf "tcp:127.0.0.1:%d" !port;
    d_stop =
      (fun () ->
        if not !stopped then begin
          stopped := true;
          ignore (Serve.Client.shutdown ~socket ?auth:auth_token ());
          Domain.join server
        end);
  }

let test_removed_inputs_rejected () =
  let decode s =
    match Obs.Json.of_string s with
    | Ok j -> Serve.Proto.request_of_json j
    | Error e -> Alcotest.failf "json: %s" e
  in
  (* The retired peer verbs are unknown ops, like any other. *)
  List.iter
    (fun (op, line) ->
      match decode line with
      | Error e ->
          Alcotest.(check string) (op ^ " is an unknown op") (Printf.sprintf "unknown op %S" op) e
      | Ok _ -> Alcotest.failf "%s must not decode" op)
    [
      ("cache_lookup", {|{"op":"cache_lookup","hash":"deadbeef"}|});
      ("cache_push", {|{"op":"cache_push","hash":"deadbeef","error":null}|});
      ("corpus_push", {|{"op":"corpus_push","entry":{}}|});
    ];
  (* A shard still round-trips the codec, so old jobs.log lines replay,
     and a half-specified one is a decode error, not a silent default. *)
  let sharded = Serve.Proto.Submit (submission ~runs:8 ~shard:(2, 5) ()) in
  (match Serve.Proto.request_of_json (Serve.Proto.request_to_json sharded) with
  | Ok req -> Alcotest.(check bool) "shard survives the codec" true (req = sharded)
  | Error e -> Alcotest.failf "decode failed: %s" e);
  List.iter
    (fun s ->
      match decode s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected decode error for %s" s)
    [
      {|{"op":"submit","source":"s","shard_lo":1}|};
      {|{"op":"submit","source":"s","shard_hi":3}|};
    ]

(* The pool refuses any shard, whole or not: it runs every restart. *)
let test_pool_shard_refused () =
  let pool = frozen_pool ~queue_capacity:4 () in
  List.iter
    (fun shard ->
      match Serve.Pool.submit pool (submission ~runs:4 ~shard ()) with
      | Error e -> Alcotest.(check bool) "refusal names shard_lo" true (contains e "shard_lo")
      | Ok _ -> Alcotest.fail "a sharded submit must be refused")
    [ (0, 4); (1, 3) ];
  Serve.Pool.shutdown pool

let test_tcp_round_trip () =
  let d = boot_daemon () in
  Fun.protect ~finally:d.d_stop (fun () ->
      let socket = d.d_tcp in
      (* Every verb over loopback TCP, through the same client. *)
      ok (Serve.Client.ping ~socket ());
      let id = ok (Serve.Client.submit ~socket (submission ~moves:200 ())) in
      let j = ok (Serve.Client.wait ~socket id) in
      Alcotest.(check (option string)) "job done over tcp" (Some "done") (jstr j "state");
      let st = ok (Serve.Client.status ~socket id) in
      Alcotest.(check (option string)) "status over tcp" (Some "done") (jstr st "state");
      ignore (ok (Serve.Client.result ~socket id));
      ignore (ok (Serve.Client.stats ~socket ()));
      (match Serve.Client.cancel ~socket id with
      | Error _ -> () (* already finished; the point is the verb's transit *)
      | Ok () -> Alcotest.fail "cancel of a done job must be an error");
      (* The Unix socket serves the same daemon. *)
      let st2 = ok (Serve.Client.stats ~socket:d.d_unix ()) in
      Alcotest.(check bool) "both transports, one daemon" true
        (Obs.Json.mem_opt "jobs" st2 <> None))

let test_tcp_partial_line_writes () =
  let d = boot_daemon ~workers:0 () in
  Fun.protect ~finally:d.d_stop (fun () ->
      (* A request dribbled out a few bytes at a time is still one line. *)
      let port =
        match Serve.Client.parse_endpoint d.d_tcp with
        | Ok (Serve.Client.Tcp (_, p)) -> p
        | _ -> Alcotest.fail "tcp endpoint did not parse"
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let line = Obs.Json.to_string (Serve.Proto.request_to_json Serve.Proto.Stats) ^ "\n" in
      String.iter
        (fun c ->
          ignore (Unix.write_substring fd (String.make 1 c) 0 1);
          if c = ',' then Unix.sleepf 0.002)
        line;
      let reader = Serve.Proto.line_reader fd in
      Alcotest.(check bool) "dribbled request answered" true
        (Serve.Proto.response_error (raw_response reader) = None);
      (* Two requests in one write: both answered, in order. *)
      let two =
        Obs.Json.to_string (Serve.Proto.request_to_json Serve.Proto.Ping)
        ^ "\n"
        ^ Obs.Json.to_string (Serve.Proto.request_to_json (Serve.Proto.Status 999))
        ^ "\n"
      in
      ignore (Unix.write_substring fd two 0 (String.length two));
      Alcotest.(check bool) "first of pipelined pair" true
        (Serve.Proto.response_error (raw_response reader) = None);
      Alcotest.(check bool) "second of pipelined pair" true
        (Serve.Proto.response_error (raw_response reader) <> None);
      Unix.close fd)

let test_tcp_error_attribution () =
  (* Nobody listening: reachability. *)
  (match Serve.Client.stats ~socket:"tcp:127.0.0.1:1" ~timeout_s:0.5 () with
  | Error e ->
      Alcotest.(check bool) "refused connect says cannot reach" true
        (contains e "cannot reach")
  | Ok _ -> Alcotest.fail "closed port must fail");
  (* Accepts but never answers: a response timeout, as on the Unix path. *)
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listener 4;
  let port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> Alcotest.fail "no port"
  in
  (match
     Serve.Client.stats ~socket:(Printf.sprintf "tcp:127.0.0.1:%d" port) ~timeout_s:0.3 ()
   with
  | Error e ->
      Alcotest.(check bool) "mute tcp daemon says did not respond" true
        (contains e "did not respond");
      Alcotest.(check bool) "not misattributed to reachability" false
        (contains e "cannot reach")
  | Ok _ -> Alcotest.fail "mute daemon must time out");
  Unix.close listener

let test_auth_required () =
  let d = boot_daemon ~workers:0 ~auth_token:"sekrit" () in
  Fun.protect ~finally:d.d_stop (fun () ->
      (* The right token, pipelined: business as usual on both transports. *)
      ignore (ok (Serve.Client.stats ~socket:d.d_tcp ~auth:"sekrit" ()));
      ignore (ok (Serve.Client.stats ~socket:d.d_unix ~auth:"sekrit" ()));
      (* No token: the first line is a request, which is an auth failure —
         exactly one ok:false line, then the connection closes. *)
      let expect_one_refusal fd =
        let reader = Serve.Proto.line_reader fd in
        Serve.Proto.write_line fd (Serve.Proto.request_to_json Serve.Proto.Stats);
        (match Serve.Proto.read_line reader with
        | Some line -> (
            match Obs.Json.of_string line with
            | Ok j -> (
                match Serve.Proto.response_error j with
                | Some e ->
                    Alcotest.(check string) "names the failure"
                      Serve.Proto.auth_failed_message e
                | None -> Alcotest.fail "refusal must be ok:false")
            | Error e -> Alcotest.failf "bad refusal json: %s" e)
        | None -> Alcotest.fail "expected one refusal line");
        (* ...and nothing after it: the daemon hung up. *)
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
        (match Serve.Proto.read_line reader with
        | None -> ()
        | Some _ -> Alcotest.fail "connection must close after the refusal");
        Unix.close fd
      in
      expect_one_refusal (connect_raw d.d_unix);
      (* Wrong token over TCP: same single refusal. *)
      let port =
        match Serve.Client.parse_endpoint d.d_tcp with
        | Ok (Serve.Client.Tcp (_, p)) -> p
        | _ -> Alcotest.fail "tcp endpoint did not parse"
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Serve.Proto.write_line fd (Serve.Proto.auth_to_json "wrong");
      let reader = Serve.Proto.line_reader fd in
      (match Serve.Proto.read_line reader with
      | Some line ->
          Alcotest.(check bool) "wrong token refused" true
            (match Obs.Json.of_string line with
            | Ok j -> Serve.Proto.response_error j <> None
            | Error _ -> false)
      | None -> Alcotest.fail "expected a refusal line");
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
      (match Serve.Proto.read_line reader with
      | None -> ()
      | Some _ -> Alcotest.fail "connection must close after wrong token");
      Unix.close fd;
      (* The client surfaces the refusal as the request's error. *)
      (match Serve.Client.stats ~socket:d.d_tcp ~auth:"wrong" () with
      | Error e ->
          Alcotest.(check bool) "client surfaces auth failure" true
            (contains e Serve.Proto.auth_failed_message)
      | Ok _ -> Alcotest.fail "wrong token must fail");
      (* Failures are counted. *)
      let st = ok (Serve.Client.stats ~socket:d.d_tcp ~auth:"sekrit" ()) in
      let conns = Option.get (Obs.Json.mem_opt "connections" st) in
      match jnum conns "auth_failures" with
      | Some n -> Alcotest.(check bool) "auth failures counted" true (n >= 3.0)
      | None -> Alcotest.fail "no auth_failures counter")

let test_drain_closes_tcp () =
  let d = boot_daemon ~workers:0 () in
  let port =
    match Serve.Client.parse_endpoint d.d_tcp with
    | Ok (Serve.Client.Tcp (_, p)) -> p
    | _ -> Alcotest.fail "tcp endpoint did not parse"
  in
  ok (Serve.Client.ping ~socket:d.d_tcp ());
  d.d_stop ();
  (* Both listeners are gone: TCP connects are refused, the socket file is
     unlinked. *)
  (match Serve.Client.ping ~socket:d.d_tcp ~timeout_s:1.0 () with
  | Error e -> Alcotest.(check bool) "tcp listener closed" true (contains e "cannot reach")
  | Ok () -> Alcotest.fail "drained daemon must not answer tcp");
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists d.d_unix);
  ignore port

(* --- Journal rotation --- *)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let test_log_rotation_compacts_and_replays () =
  let dir = temp_state_dir "rotate" in
  rm_rf dir;
  let cfg workers =
    {
      Serve.Pool.default_config with
      workers;
      queue_capacity = 16;
      state_dir = Some dir;
      log_rotate_bytes = Some 2_000;
    }
  in
  let pool = Serve.Pool.create (cfg 1) in
  let ids =
    List.init 5 (fun i ->
        ok (Serve.Pool.submit pool (submission ~seed:(i + 1) ~moves:150 ())))
  in
  List.iter (fun id -> Alcotest.(check string) "finished" "done" (wait_done pool id)) ids;
  let costs =
    List.map
      (fun id ->
        match jnum (ok (Serve.Pool.result_json pool id)) "best_cost" with
        | Some c -> (id, c)
        | None -> Alcotest.failf "job %d has no best_cost" id)
      ids
  in
  let records =
    List.map (fun id -> (id, Obs.Json.to_string (ok (Serve.Pool.result_json pool id)))) ids
  in
  let stats = Serve.Pool.stats_json pool in
  let journal = Option.get (Obs.Json.mem_opt "journal" stats) in
  (match jnum journal "rotations" with
  | Some n -> Alcotest.(check bool) "rotated at least once" true (n >= 1.0)
  | None -> Alcotest.fail "no rotations counter");
  (* The compacted journal holds one terminal line per finished job. *)
  let lines = read_lines (Filename.concat dir "jobs.log") in
  Alcotest.(check bool) "compaction shrank the journal" true
    (List.length lines <= 2 * List.length ids);
  Serve.Pool.shutdown pool;
  (* A leftover tmp from a rotation killed mid-write must be ignored:
     replay reads jobs.log only. *)
  let tmp_oc = open_out (Filename.concat dir "jobs.log.tmp") in
  output_string tmp_oc "{\"log\":\"submit\",\"torn";
  close_out tmp_oc;
  let pool2 = Serve.Pool.create (cfg 0) in
  List.iter
    (fun (id, cost) ->
      let j = ok (Serve.Pool.result_json pool2 id) in
      Alcotest.(check (option string))
        (Printf.sprintf "job %d replayed done" id)
        (Some "done") (jstr j "state");
      match jnum j "best_cost" with
      | Some c ->
          Alcotest.(check bool)
            (Printf.sprintf "job %d cost bit-identical" id)
            true
            (Int64.bits_of_float c = Int64.bits_of_float cost)
      | None -> Alcotest.failf "job %d lost best_cost" id)
    costs;
  List.iter
    (fun (id, record) ->
      Alcotest.(check string)
        (Printf.sprintf "job %d record string-identical" id)
        record
        (Obs.Json.to_string (ok (Serve.Pool.result_json pool2 id))))
    records;
  Serve.Pool.shutdown pool2;
  rm_rf dir

(* Compaction keeps a record per job, so once the compacted log alone
   passes the limit, rotating on the limit alone rewrote the journal after
   every append: 19 rotations for these ten jobs. Rotation now waits for
   the log to double since the last compaction. *)
let test_log_rotation_bounded () =
  let dir = temp_state_dir "rotate-bounded" in
  rm_rf dir;
  let cfg workers =
    {
      Serve.Pool.default_config with
      workers;
      queue_capacity = 16;
      state_dir = Some dir;
      log_rotate_bytes = Some 2_000;
    }
  in
  let pool = Serve.Pool.create (cfg 1) in
  let ids =
    List.init 10 (fun i ->
        let id = ok (Serve.Pool.submit pool (submission ~seed:(i + 1) ~moves:100 ())) in
        Alcotest.(check string) "finished" "done" (wait_done pool id);
        id)
  in
  let records =
    List.map (fun id -> (id, Obs.Json.to_string (ok (Serve.Pool.result_json pool id)))) ids
  in
  let journal = Option.get (Obs.Json.mem_opt "journal" (Serve.Pool.stats_json pool)) in
  (match jnum journal "rotations" with
  | Some n ->
      Alcotest.(check bool) (Printf.sprintf "rotated, but fewer than 5 times (%g)" n) true
        (n >= 1.0 && n < 5.0)
  | None -> Alcotest.fail "no rotations counter");
  Serve.Pool.shutdown pool;
  let pool2 = Serve.Pool.create (cfg 0) in
  List.iter
    (fun (id, record) ->
      Alcotest.(check string)
        (Printf.sprintf "job %d record string-identical" id)
        record
        (Obs.Json.to_string (ok (Serve.Pool.result_json pool2 id))))
    records;
  Serve.Pool.shutdown pool2;
  rm_rf dir

let test_log_rotation_keeps_live_jobs () =
  let dir = temp_state_dir "rotate-live" in
  rm_rf dir;
  (* A frozen pool with queued jobs: rotation must preserve their submit
     lines so a restart still knows about them. Tiny threshold so the
     queued submits themselves trip rotation. *)
  let cfg =
    {
      Serve.Pool.default_config with
      workers = 0;
      queue_capacity = 16;
      state_dir = Some dir;
      log_rotate_bytes = Some 200;
    }
  in
  let pool = Serve.Pool.create cfg in
  let ids = List.init 3 (fun i -> ok (Serve.Pool.submit pool (submission ~seed:(i + 1) ()))) in
  let stats = Serve.Pool.stats_json pool in
  let journal = Option.get (Obs.Json.mem_opt "journal" stats) in
  (match jnum journal "rotations" with
  | Some n -> Alcotest.(check bool) "queued submits tripped rotation" true (n >= 1.0)
  | None -> Alcotest.fail "no rotations counter");
  (* Abandon without shutdown (simulated crash): the rotated journal must
     still replay every queued id, as failed-by-restart. *)
  let pool2 = Serve.Pool.create { cfg with log_rotate_bytes = None } in
  List.iter
    (fun id ->
      let j = ok (Serve.Pool.result_json pool2 id) in
      Alcotest.(check (option string))
        (Printf.sprintf "queued job %d survived rotation" id)
        (Some "failed") (jstr j "state"))
    ids;
  Serve.Pool.shutdown pool2;
  Serve.Pool.shutdown pool;
  rm_rf dir

(* --- Sweep jobs --- *)

let sweep_variants =
  [
    { Serve.Proto.vr_name = "nominal/base"; vr_corner = None; vr_specs = [] };
    { Serve.Proto.vr_name = "slow/base"; vr_corner = Some "slow"; vr_specs = [] };
    {
      Serve.Proto.vr_name = "nominal/tight-ugf";
      vr_corner = None;
      vr_specs = [ ("ugf", 80e6, 1e6) ];
    };
  ]

let test_proto_sweep_round_trip () =
  let req =
    Serve.Proto.Sweep { (submission ()) with Serve.Proto.sb_sweep = sweep_variants }
  in
  (match Serve.Proto.request_of_json (Serve.Proto.request_to_json req) with
  | Ok req' -> Alcotest.(check bool) "sweep survives the wire" true (req = req')
  | Error e -> Alcotest.failf "decode failed: %s" e);
  (* A sweep with no variants is a shape error on decode. *)
  let empty = Serve.Proto.Sweep (submission ()) in
  match Serve.Proto.request_of_json (Serve.Proto.request_to_json empty) with
  | Error e -> Alcotest.(check bool) "empty sweep rejected" true (contains e "variant")
  | Ok _ -> Alcotest.fail "empty sweep must not decode"

let test_pool_sweep_validation () =
  let pool = frozen_pool ~queue_capacity:4 () in
  (* A sweep carrying a shard is refused like any sharded submit. *)
  (match
     Serve.Pool.submit pool
       { (submission ~shard:(0, 1) ()) with Serve.Proto.sb_sweep = sweep_variants }
   with
  | Error e -> Alcotest.(check bool) "sharded sweep rejected" true (contains e "shard")
  | Ok _ -> Alcotest.fail "sharded sweep must be rejected");
  (* Variant rows need names — they key the verdict table. *)
  (match
     Serve.Pool.submit pool
       {
         (submission ()) with
         Serve.Proto.sb_sweep =
           [ { Serve.Proto.vr_name = "  "; vr_corner = None; vr_specs = [] } ];
       }
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unnamed variant must be rejected");
  Serve.Pool.shutdown pool

let run_sweep_on ~workers =
  let pool =
    Serve.Pool.create
      { Serve.Pool.default_config with workers; queue_capacity = 8; state_dir = None }
  in
  Fun.protect
    ~finally:(fun () -> Serve.Pool.shutdown pool)
    (fun () ->
      let id =
        ok
          (Serve.Pool.submit pool
             { (submission ~seed:7 ~moves:150 ()) with Serve.Proto.sb_sweep = sweep_variants })
      in
      Alcotest.(check string) "sweep finished" "done" (wait_done pool id);
      let j = ok (Serve.Pool.result_json pool id) in
      match Obs.Json.mem_opt "sweep" j with
      | Some (Obs.Json.Arr rows) -> (rows, Serve.Pool.stats_json pool)
      | _ -> Alcotest.fail "no sweep array in the result")

let test_pool_sweep_verdict_table () =
  let rows, stats = run_sweep_on ~workers:1 in
  Alcotest.(check int) "one row per variant" (List.length sweep_variants)
    (List.length rows);
  let cache_of r = jstr r "cache" in
  (match List.map cache_of rows with
  | [ Some "miss"; Some "miss"; Some "hit" ] -> ()
  | other ->
      Alcotest.failf "cache outcomes: expected miss/miss/hit, got %s"
        (String.concat "/"
           (List.map (function Some s -> s | None -> "?") other)));
  List.iter
    (fun r ->
      Alcotest.(check bool) "row has a verdict" true (Obs.Json.mem_opt "ok" r <> None);
      Alcotest.(check bool) "row has a best cost" true (jnum r "best_cost" <> None);
      Alcotest.(check bool) "row carries predictions" true
        (Obs.Json.mem_opt "predicted" r <> None))
    rows;
  (* The pool-level cache counters agree: 2 distinct (canon, corner) keys
     compiled, the third variant reused the nominal compile. *)
  match Obs.Json.mem_opt "cache" stats with
  | Some c ->
      Alcotest.(check (option (float 0.0))) "two compiles" (Some 2.0) (jnum c "misses");
      Alcotest.(check (option (float 0.0))) "one reuse" (Some 1.0) (jnum c "hits")
  | None -> Alcotest.fail "no cache stats"

let test_pool_sweep_determinism_vs_workers () =
  (* The verdict table is a function of (source, variants, seed) only:
     each variant runs jobs=1 on a single worker, so a 4-worker pool must
     reproduce the 1-worker table byte for byte. *)
  let rows1, _ = run_sweep_on ~workers:1 in
  let rows4, _ = run_sweep_on ~workers:4 in
  Alcotest.(check string) "verdict tables byte-identical"
    (Obs.Json.to_string (Obs.Json.Arr rows1))
    (Obs.Json.to_string (Obs.Json.Arr rows4))

(* --- Warm starts: corpus, seeded submits, resynthesize --- *)

let corpus_entry =
  {
    Serve.Corpus.en_shape = "shapehash";
    en_canon = "canonhash";
    en_job = 3;
    en_name = "circuit";
    en_cost = 1.5;
    en_values = [| 1.0; -2.5e-6; 0.0 |];
    en_grid = [| 0; 7; 3 |];
    en_probs = [| 0.25; 0.75 |];
  }

let test_proto_warm_round_trip () =
  let requests =
    [
      Serve.Proto.Submit
        {
          (submission ()) with
          Serve.Proto.sb_warm = [ corpus_entry ];
          sb_spec_overrides = [ ("ugf", 4.5e7, 1e6) ];
        };
      Serve.Proto.Resynthesize
        {
          Serve.Proto.rz_id = 9;
          rz_specs = [ ("ugf", 4.5e7, None); ("pm", 50.0, Some 10.0) ];
          rz_runs = Some 2;
          rz_moves = None;
          rz_deadline_s = Some 3.0;
          rz_trace = true;
        };
      Serve.Proto.Corpus_lookup "shapehash";
    ]
  in
  List.iter
    (fun req ->
      match Serve.Proto.request_of_json (Serve.Proto.request_to_json req) with
      | Ok req' -> Alcotest.(check bool) "warm request survives the wire" true (req = req')
      | Error e -> Alcotest.failf "decode failed: %s" e)
    requests

(* A warm pool snapshots the corpus for a plain submit's shape, which
   parses the source inside [submit]: a digitless literal there must not
   raise out of it. *)
let test_pool_warm_digitless_number () =
  let pool =
    Serve.Pool.create
      {
        Serve.Pool.default_config with
        workers = 0;
        queue_capacity = 4;
        state_dir = None;
        warm = true;
      }
  in
  let source =
    String.split_on_char '\n' ota_source
    |> List.map (fun l ->
           if String.starts_with ~prefix:".var " l then
             String.split_on_char ' ' l
             |> List.map (fun tok ->
                    if String.starts_with ~prefix:"min=" tok then "min=.u" else tok)
             |> String.concat " "
           else l)
    |> String.concat "\n"
  in
  (match Serve.Pool.submit pool (submission ~source ()) with
  | Ok _ | Error _ -> ()
  | exception e -> Alcotest.failf "submit raised %s" (Printexc.to_string e));
  Serve.Pool.shutdown pool

let test_pool_warm_validation () =
  let pool = frozen_pool ~queue_capacity:4 () in
  (match
     Serve.Pool.submit pool
       { (submission ~runs:1 ()) with Serve.Proto.sb_warm = [ corpus_entry; corpus_entry ] }
   with
  | Error e -> Alcotest.(check bool) "seeds > runs rejected" true (contains e "warm")
  | Ok _ -> Alcotest.fail "more warm seeds than runs must be rejected");
  (match
     Serve.Pool.submit pool
       {
         (submission ()) with
         Serve.Proto.sb_sweep = sweep_variants;
         sb_warm = [ corpus_entry ];
       }
   with
  | Error e -> Alcotest.(check bool) "warm sweep rejected" true (contains e "warm")
  | Ok _ -> Alcotest.fail "a warm-seeded sweep must be rejected");
  (* A queued job never finishes on a frozen pool, so resynthesizing it
     must name the only-done rule (no race against a worker). *)
  let queued = ok (Serve.Pool.submit pool (submission ())) in
  (match
     Serve.Pool.resynthesize pool
       {
         Serve.Proto.rz_id = queued;
         rz_specs = [];
         rz_runs = None;
         rz_moves = None;
         rz_deadline_s = None;
         rz_trace = false;
       }
   with
  | Error e ->
      Alcotest.(check bool) "unfinished parent refused" true (contains e "only done")
  | Ok _ -> Alcotest.fail "resynthesizing an unfinished job must fail");
  (match
     Serve.Pool.resynthesize pool
       {
         Serve.Proto.rz_id = 9999;
         rz_specs = [];
         rz_runs = None;
         rz_moves = None;
         rz_deadline_s = None;
         rz_trace = false;
       }
   with
  | Error e -> Alcotest.(check bool) "unknown parent refused" true (contains e "unknown job")
  | Ok _ -> Alcotest.fail "resynthesizing an unknown job must fail");
  Serve.Pool.shutdown pool

let warm_pool ?state_dir () =
  Serve.Pool.create
    {
      Serve.Pool.default_config with
      workers = 1;
      queue_capacity = 16;
      state_dir;
      warm = true;
      warm_fraction = 1.0;
    }

let test_pool_corpus_records_and_seeds () =
  let pool = warm_pool () in
  Fun.protect
    ~finally:(fun () -> Serve.Pool.shutdown pool)
    (fun () ->
      let parent = ok (Serve.Pool.submit pool (submission ~seed:3 ~moves:300 ())) in
      Alcotest.(check string) "parent finished" "done" (wait_done pool parent);
      (* Recording is passive and always on: the winner is in the corpus
         under the problem's shape hash. *)
      let shape =
        match Serve.Corpus.shape_of_source ota_source with
        | Some s -> s
        | None -> Alcotest.fail "source does not shape-hash"
      in
      (match Serve.Pool.corpus_lookup pool ~shape with
      | [ e ] ->
          Alcotest.(check int) "entry names the parent job" parent e.Serve.Corpus.en_job;
          Alcotest.(check bool) "entry carries the winning vector" true
            (Array.length e.Serve.Corpus.en_values > 0);
          Alcotest.(check bool) "entry carries the Hustin distribution" true
            (Array.length e.Serve.Corpus.en_probs > 0)
      | other -> Alcotest.failf "expected 1 corpus entry, got %d" (List.length other));
      (* warm = true, fraction 1.0, runs = 1: the child's only restart is
         seeded, so the winner must record the corpus label. *)
      let child = ok (Serve.Pool.submit pool (submission ~seed:4 ~moves:300 ())) in
      Alcotest.(check string) "child finished" "done" (wait_done pool child);
      let j = ok (Serve.Pool.result_json pool child) in
      Alcotest.(check (option string)) "winner records its corpus seed"
        (Some (Printf.sprintf "corpus:job%d:simple-ota" parent))
        (jstr j "warm"))

let test_pool_corpus_crash_durability () =
  let dir = temp_state_dir "corpus" in
  rm_rf dir;
  (* Pool A records a winner, then is abandoned without shutdown — the
     crash case. The corpus journal is flushed per add, so pool B over the
     same state_dir must replay the identical entry, and a warm job
     submitted to either pool must synthesize bit-identically: the
     journaled snapshot, not the daemon's lifetime, owns the seeds. *)
  let cfg = { Serve.Pool.default_config with workers = 1; queue_capacity = 8;
              state_dir = Some dir; warm = true; warm_fraction = 1.0 } in
  let pool_a = Serve.Pool.create cfg in
  let parent = ok (Serve.Pool.submit pool_a (submission ~seed:5 ~moves:300 ())) in
  Alcotest.(check string) "parent finished" "done" (wait_done pool_a parent);
  let shape = Option.get (Serve.Corpus.shape_of_source ota_source) in
  let entry_a =
    match Serve.Pool.corpus_lookup pool_a ~shape with
    | [ e ] -> e
    | other -> Alcotest.failf "pool A: expected 1 entry, got %d" (List.length other)
  in
  (* No shutdown: pool B replays the journal a crashed daemon left. *)
  let pool_b = Serve.Pool.create cfg in
  let entry_b =
    match Serve.Pool.corpus_lookup pool_b ~shape with
    | [ e ] -> e
    | other -> Alcotest.failf "pool B: expected 1 entry, got %d" (List.length other)
  in
  Alcotest.(check int) "same job id" entry_a.Serve.Corpus.en_job entry_b.Serve.Corpus.en_job;
  Alcotest.(check bool) "replayed cost bit-identical" true
    (Int64.bits_of_float entry_a.Serve.Corpus.en_cost
    = Int64.bits_of_float entry_b.Serve.Corpus.en_cost);
  Alcotest.(check bool) "replayed vector bit-identical" true
    (Array.for_all2
       (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
       entry_a.Serve.Corpus.en_values entry_b.Serve.Corpus.en_values);
  (match Obs.Json.mem_opt "corpus" (Serve.Pool.stats_json pool_b) with
  | Some c ->
      Alcotest.(check bool) "replay counted" true
        (match jnum c "replayed" with Some n -> n >= 1.0 | None -> false)
  | None -> Alcotest.fail "no corpus stats block");
  let warm_cost pool =
    let id = ok (Serve.Pool.submit pool (submission ~seed:6 ~moves:300 ())) in
    Alcotest.(check string) "warm job finished" "done" (wait_done pool id);
    let j = ok (Serve.Pool.result_json pool id) in
    Alcotest.(check (option string)) "warm job was seeded"
      (Some (Printf.sprintf "corpus:job%d:simple-ota" parent))
      (jstr j "warm");
    match jnum j "best_cost" with
    | Some c -> c
    | None -> Alcotest.fail "warm job has no best_cost"
  in
  let cost_a = warm_cost pool_a in
  let cost_b = warm_cost pool_b in
  Alcotest.(check bool) "warm rerun bit-identical across the crash" true
    (Int64.bits_of_float cost_a = Int64.bits_of_float cost_b);
  Serve.Pool.shutdown pool_a;
  Serve.Pool.shutdown pool_b;
  rm_rf dir

let test_pool_resynthesize () =
  (* Warm consumption off (the default): resynthesize still works — the
     parent's recorded winner, not the corpus gate, provides the seed. *)
  let pool = running_pool () in
  Fun.protect
    ~finally:(fun () -> Serve.Pool.shutdown pool)
    (fun () ->
      let parent = ok (Serve.Pool.submit pool (submission ~seed:9 ~moves:400 ~runs:2 ())) in
      Alcotest.(check string) "parent finished" "done" (wait_done pool parent);
      (match
         Serve.Pool.resynthesize pool
           {
             Serve.Proto.rz_id = parent;
             rz_specs = [ ("no-such-spec", 1.0, None) ];
             rz_runs = None;
             rz_moves = None;
             rz_deadline_s = None;
             rz_trace = false;
           }
       with
      | Error e -> Alcotest.(check bool) "unknown spec named" true (contains e "no-such-spec")
      | Ok _ -> Alcotest.fail "an unknown spec must be rejected");
      let child =
        ok
          (Serve.Pool.resynthesize pool
             {
               Serve.Proto.rz_id = parent;
               rz_specs = [ ("ugf", 4.5e7, None) ];
               rz_runs = None;
               rz_moves = None;
               rz_deadline_s = None;
               rz_trace = false;
             })
      in
      Alcotest.(check string) "child finished" "done" (wait_done pool child);
      let j = ok (Serve.Pool.result_json pool child) in
      Alcotest.(check (option string)) "child names its parent"
        (Some (Printf.sprintf "simple-ota#resynth:%d" parent))
        (jstr j "name");
      (* Half the parent's restarts: 2 -> 1, so the single restart is the
         warm one and the winner records the parent seed. *)
      Alcotest.(check (option (float 0.0))) "reduced schedule" (Some 1.0) (jnum j "runs");
      Alcotest.(check (option string)) "warm-started from the parent winner"
        (Some (Printf.sprintf "corpus:job%d:simple-ota" parent))
        (jstr j "warm");
      (* Same source, so the child's compile is a cache hit — the point of
         the fast path. *)
      Alcotest.(check (option string)) "cached compile" (Some "hit") (jstr j "cache");
      Alcotest.(check bool) "child reports a best design" true (jnum j "best_cost" <> None))

(* --- Codecs: one encoder and one decoder per record --- *)

(* Finite floats, with the edge cases of a %.17g round trip drawn often. *)
let finite =
  QCheck.Gen.(
    frequency
      [
        (4, float_range (-1e6) 1e6);
        ( 2,
          map
            (fun b ->
              let f = Int64.float_of_bits b in
              if Float.is_finite f then f else 1.0)
            int64 );
        (1, map float_of_int small_signed_int);
        ( 2,
          oneofl
            [
              0.0; -0.0; 5e-324; -5e-324; 1.7976931348623157e308; -1.7976931348623157e308;
              1e15; -1e15 -. 0.5; 0.1;
            ] );
      ])

let any_float = QCheck.Gen.(frequency [ (6, finite); (1, oneofl [ nan; infinity; neg_infinity ]) ])
let gen_str = QCheck.Gen.(string_size ~gen:char (0 -- 8))
let gen_specs = QCheck.Gen.(list_size (0 -- 3) (triple gen_str finite finite))

let gen_entry =
  QCheck.Gen.(
    let* shape = string_size ~gen:char (1 -- 8) in
    let* canon = gen_str in
    let* job = 0 -- 1_000_000 in
    let* name = gen_str in
    let* cost = finite in
    let* values = array_size (1 -- 4) finite in
    let* grid = array_size (0 -- 4) small_signed_int in
    let+ probs = array_size (0 -- 3) finite in
    {
      Serve.Corpus.en_shape = shape;
      en_canon = canon;
      en_job = job;
      en_name = name;
      en_cost = cost;
      en_values = values;
      en_grid = grid;
      en_probs = probs;
    })

let gen_submit =
  QCheck.Gen.(
    let* name = gen_str in
    let* source = gen_str in
    let* seed = -1000 -- 1_000_000 in
    let* moves = opt (0 -- 1_000_000) in
    let* runs = 1 -- 64 in
    let* priority = small_signed_int in
    let* deadline_s = opt finite in
    let* trace = bool in
    let* shard = opt (pair small_nat small_nat) in
    let* sweep =
      list_size (0 -- 3)
        (map3
           (fun vr_name vr_corner vr_specs -> { Serve.Proto.vr_name; vr_corner; vr_specs })
           gen_str (opt gen_str) gen_specs)
    in
    let* warm = list_size (0 -- 2) gen_entry in
    let+ spec_overrides = gen_specs in
    {
      Serve.Proto.sb_name = name;
      sb_source = source;
      sb_seed = seed;
      sb_moves = moves;
      sb_runs = runs;
      sb_priority = priority;
      sb_deadline_s = deadline_s;
      sb_trace = trace;
      sb_shard = shard;
      sb_sweep = sweep;
      sb_warm = warm;
      sb_spec_overrides = spec_overrides;
    })

let gen_row f =
  QCheck.Gen.(
    let* name = gen_str in
    let* corner = opt gen_str in
    let* cache = opt (oneofl [ Core.Compile_cache.Hit; Core.Compile_cache.Miss ]) in
    let* best_cost = opt f in
    let* ok = opt bool in
    let* error = opt gen_str in
    let* predicted = list_size (0 -- 3) (pair gen_str (opt f)) in
    let* moves = nat in
    let* evals = nat in
    let+ cut_reason = opt gen_str in
    {
      Serve.Proto.sv_name = name;
      sv_corner = corner;
      sv_cache = cache;
      sv_best_cost = best_cost;
      sv_ok = ok;
      sv_error = error;
      sv_predicted = predicted;
      sv_moves = moves;
      sv_evals = evals;
      sv_cut_reason = cut_reason;
    })

let gen_outcome f =
  QCheck.Gen.(
    let* best_cost = f in
    let* moves = nat in
    let* evals = nat in
    let* cut_reason = opt gen_str in
    let* predicted = list_size (0 -- 4) (pair gen_str (opt f)) in
    let* sizes = list_size (0 -- 4) (pair gen_str f) in
    let* winner_restart = opt small_nat in
    let* winner_score = opt f in
    let* sweep = list_size (0 -- 2) (gen_row f) in
    let* shape = opt gen_str in
    let* warm = opt gen_str in
    let+ winner =
      opt
        (triple (array_size (0 -- 4) f) (array_size (0 -- 4) small_signed_int)
           (array_size (0 -- 3) f))
    in
    {
      Serve.Proto.jo_best_cost = best_cost;
      jo_moves = moves;
      jo_evals = evals;
      jo_cut_reason = cut_reason;
      jo_predicted = predicted;
      jo_sizes = sizes;
      jo_winner_restart = winner_restart;
      jo_winner_score = winner_score;
      jo_sweep = sweep;
      jo_shape = shape;
      jo_warm = warm;
      jo_winner = winner;
    })

(* Encode to a line, parse and decode it: the line and the decoded value. *)
let through_line to_json of_json v =
  let line = Obs.Json.to_string (to_json v) in
  match Result.bind (Obs.Json.of_string line) of_json with
  | Ok v' -> (line, v')
  | Error e -> QCheck.Test.fail_reportf "%s does not decode: %s" line e

(* Marshalled without sharing, two values agree byte for byte exactly when
   they agree structurally with every float compared by its bits. *)
let bits v = Marshal.to_string v [ Marshal.No_sharing ]

let prop_submit_round_trip =
  QCheck.Test.make ~name:"submit_of_json (submit_to_json s) = s" ~count:300
    (QCheck.make gen_submit)
    (fun s ->
      snd (through_line Serve.Proto.submit_to_json Serve.Proto.submit_of_json s) = s)

let prop_reencodes ~name to_json of_json gen =
  QCheck.Test.make ~name ~count:300 (QCheck.make gen) (fun v ->
      let line, v' = through_line to_json of_json v in
      Obs.Json.to_string (to_json v') = line)

let prop_bit_exact ~name to_json of_json gen =
  QCheck.Test.make ~name ~count:300 (QCheck.make gen) (fun v ->
      bits (snd (through_line to_json of_json v)) = bits v)

let codec_props =
  let open Serve.Proto in
  [
    prop_submit_round_trip;
    prop_reencodes ~name:"outcome re-encodes to the same line" outcome_to_json outcome_of_json
      (gen_outcome any_float);
    prop_bit_exact ~name:"finite outcome decodes bit for bit" outcome_to_json outcome_of_json
      (gen_outcome finite);
    prop_reencodes ~name:"sweep row re-encodes to the same line" sweep_row_to_json
      sweep_row_of_json (gen_row any_float);
    prop_bit_exact ~name:"finite sweep row decodes bit for bit" sweep_row_to_json
      sweep_row_of_json (gen_row finite);
  ]

let test_outcome_decode_names_field () =
  let head = {|{"cut_reason":null,"winner_restart":0,"winner_score":1.5,"sizes":{},|} in
  List.iter
    (fun (what, body, field) ->
      match Serve.Proto.outcome_of_json (Result.get_ok (Obs.Json.of_string (head ^ body))) with
      | Error e -> Alcotest.(check bool) (what ^ " names " ^ field) true (contains e field)
      | Ok _ -> Alcotest.failf "%s: must not decode" what)
    [
      ("mistyped cost", {|"best_cost":"x","moves":3,"evals":2,"predicted":{}}|}, "best_cost");
      ("missing moves", {|"best_cost":1,"evals":2,"predicted":{}}|}, "moves");
      ("mistyped prediction", {|"best_cost":1,"moves":3,"evals":2,"predicted":{"ugf":"hi"}}|}, "ugf");
      ( "half a winner",
        {|"best_cost":1,"moves":3,"evals":2,"predicted":{},"winner_values":[1],"winner_grid":[0]}|},
        "winner_probs" );
      ( "mistyped sweep row",
        {|"best_cost":1,"moves":3,"evals":2,"predicted":{},"sweep":[{"variant":"v","corner":null,"cache":"maybe","best_cost":null,"ok":null,"error":null,"predicted":{},"moves":0,"evals":0,"cut_reason":null}]}|},
        {|"sweep": field "cache"|} );
    ]

(* --- Strict replay: garbled journal lines are counted, never applied --- *)

let journal_rejected pool =
  Option.bind (Obs.Json.mem_opt "journal" (Serve.Pool.stats_json pool)) (fun j ->
      jnum j "rejected")

let write_lines path lines =
  let oc = open_out path in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc

(* A real journal to garble: job 0 submitted and finished. *)
let finished_journal =
  lazy
    (let dir = temp_state_dir "garble-src" in
     rm_rf dir;
     let pool =
       Serve.Pool.create
         { Serve.Pool.default_config with workers = 1; queue_capacity = 4; state_dir = Some dir }
     in
     let id = ok (Serve.Pool.submit pool (submission ~moves:100 ())) in
     ignore (wait_done pool id);
     Serve.Pool.shutdown pool;
     let lines = read_lines (Filename.concat dir "jobs.log") in
     rm_rf dir;
     lines)

let prop_garbled_lines_rejected =
  QCheck.Test.make ~name:"truncated or mutated journal lines decode or are rejected" ~count:150
    (QCheck.make
       ~print:QCheck.Print.(quad bool bool int char)
       QCheck.Gen.(quad bool bool nat char))
    (fun (finish_line, truncate, pos, byte) ->
      let lines = Lazy.force finished_journal in
      let k = if finish_line then List.length lines - 1 else 0 in
      let line = List.nth lines k in
      let pos = pos mod String.length line in
      let garbled =
        if truncate then String.sub line 0 pos
        else String.mapi (fun i c -> if i = pos then byte else c) line
      in
      let dir = temp_state_dir "garble" in
      rm_rf dir;
      Unix.mkdir dir 0o755;
      write_lines (Filename.concat dir "jobs.log")
        (List.mapi (fun i l -> if i = k then garbled else l) lines);
      match
        Serve.Pool.create
          { Serve.Pool.default_config with workers = 0; queue_capacity = 4; state_dir = Some dir }
      with
      | exception e -> QCheck.Test.fail_reportf "replay raised %s" (Printexc.to_string e)
      | pool ->
          let rejected = Option.value (journal_rejected pool) ~default:(-1.0) in
          let record = Result.to_option (Serve.Pool.result_json pool 0) in
          Serve.Pool.shutdown pool;
          rm_rf dir;
          (* A mutated byte may be a newline, which splits the line; a
             finish line whose submit line was rejected is rejected too. *)
          let spans = List.length (String.split_on_char '\n' garbled) in
          rejected >= 0.0
          && rejected <= float_of_int (List.length lines - 1 + spans)
          &&
          match record with
          | Some j -> jstr j "state" <> Some "done" || jnum j "best_cost" <> None
          | None -> true)

let test_replay_rejects_garbled_finish () =
  let dir = temp_state_dir "garbled" in
  rm_rf dir;
  let cfg workers =
    { Serve.Pool.default_config with workers; queue_capacity = 4; state_dir = Some dir }
  in
  let pool = Serve.Pool.create (cfg 1) in
  let id = ok (Serve.Pool.submit pool (submission ~moves:150 ())) in
  Alcotest.(check string) "job finished" "done" (wait_done pool id);
  let traced = ok (Serve.Pool.submit pool (submission ~moves:150 ~trace:true ())) in
  Alcotest.(check string) "traced job finished" "done" (wait_done pool traced);
  Serve.Pool.shutdown pool;
  (* Rewrite the plain finish line's best_cost to a string, and give one
     event of the traced finish line a kind no event has. *)
  let garble_event line =
    let key = {|"ev":"done"|} in
    let rec find i =
      if String.sub line i (String.length key) = key then i else find (i + 1)
    in
    let at = find 0 in
    String.sub line 0 at ^ {|"ev":"gone"|}
    ^ String.sub line (at + String.length key) (String.length line - at - String.length key)
  in
  let garble line =
    let key = {|"best_cost":|} in
    let rec find i =
      if String.sub line i (String.length key) = key then i + String.length key
      else find (i + 1)
    in
    let start = find 0 in
    let rec stop i = if line.[i] = ',' || line.[i] = '}' then i else stop (i + 1) in
    let stop = stop start in
    String.sub line 0 start ^ {|"x"|} ^ String.sub line stop (String.length line - stop)
  in
  let path = Filename.concat dir "jobs.log" in
  write_lines path
    (List.map
       (fun l ->
         if not (contains l {|"finish"|}) then l
         else if contains l {|"events"|} then garble_event l
         else garble l)
       (read_lines path));
  let pool = Serve.Pool.create (cfg 0) in
  let j = ok (Serve.Pool.result_json pool id) in
  Alcotest.(check bool) "never done without a cost" true
    (jstr j "state" <> Some "done" || jnum j "best_cost" <> None);
  Alcotest.(check (option string)) "replays as interrupted" (Some "failed") (jstr j "state");
  Alcotest.(check (option string)) "blames the restart" (Some "daemon restarted")
    (jstr j "error");
  let t = ok (Serve.Pool.result_json pool traced) in
  Alcotest.(check (option string)) "a garbled event fails its job's finish line"
    (Some "daemon restarted") (jstr t "error");
  Alcotest.(check (option (float 0.0))) "both bad lines are counted" (Some 2.0)
    (journal_rejected pool);
  Serve.Pool.shutdown pool;
  rm_rf dir

(* [entry_to_json corpus_entry] with member [k] replaced by [v], or
   dropped when [v] is [None]. *)
let corpus_json_with k v =
  match Serve.Corpus.entry_to_json corpus_entry with
  | Obs.Json.Obj kvs ->
      Obs.Json.to_string
        (Obs.Json.Obj
           (List.filter_map
              (fun (k', v') -> if k' <> k then Some (k', v') else Option.map (fun v -> (k, v)) v)
              kvs))
  | _ -> assert false

let test_corpus_decode_names_field () =
  let cases =
    [
      ("name", Some (Obs.Json.Num 5.0));
      ("grid", None);
      ("probs", None);
      ("grid", Some (Obs.Json.Arr [ Obs.Json.Num 0.5 ]));
      ("job", Some (Obs.Json.Str "3"));
      ("canon", None);
    ]
  in
  List.iter
    (fun (k, v) ->
      match Result.bind (Obs.Json.of_string (corpus_json_with k v)) Serve.Corpus.entry_of_json with
      | Ok _ -> Alcotest.failf "%s: a garbled entry decoded" k
      | Error e ->
          Alcotest.(check bool) (Printf.sprintf "%s: error %S names the field" k e) true
            (contains e (Printf.sprintf "%S" k)))
    cases

let test_corpus_replay_counts_rejected () =
  let dir = temp_state_dir "corpus-rejected" in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "corpus.log" in
  let good = Obs.Json.to_string (Serve.Corpus.entry_to_json corpus_entry) in
  write_lines path
    [
      good;
      {|{"shape":"s","values":"none"}|};
      String.sub good 0 20;
      corpus_json_with "name" (Some (Obs.Json.Num 5.0));
      corpus_json_with "grid" None;
    ];
  let c = Serve.Corpus.create ~path () in
  let st = Serve.Corpus.stats c in
  Alcotest.(check int) "the good line replays" 1 st.Serve.Corpus.replayed;
  Alcotest.(check int) "the bad, torn and defaulted lines are counted" 4 st.Serve.Corpus.rejected;
  Serve.Corpus.close c;
  rm_rf dir

(* Garbled corpus lines, as [prop_garbled_lines_rejected] garbles the job
   log: replay never raises, counts every line as replayed or rejected,
   and a line that still decodes carries every member the encoder writes
   (none was defaulted) and round-trips through the codec. *)
let prop_garbled_corpus_lines =
  QCheck.Test.make ~name:"truncated or mutated corpus lines decode whole or are rejected"
    ~count:200
    (QCheck.make ~print:QCheck.Print.(triple bool int char) QCheck.Gen.(triple bool nat char))
    (fun (truncate, pos, byte) ->
      let line = Obs.Json.to_string (Serve.Corpus.entry_to_json corpus_entry) in
      let pos = pos mod String.length line in
      let garbled =
        if truncate then String.sub line 0 pos
        else String.mapi (fun i c -> if i = pos then byte else c) line
      in
      let members = [ "shape"; "canon"; "job"; "name"; "cost"; "values"; "grid"; "probs" ] in
      let decoded l =
        Result.bind (Obs.Json.of_string l) (fun j ->
            Result.map (fun e -> (j, e)) (Serve.Corpus.entry_of_json j))
      in
      let whole (j, e) =
        List.for_all (fun k -> Obs.Json.mem_opt k j <> None) members
        && Serve.Corpus.entry_of_json (Serve.Corpus.entry_to_json e) = Ok e
      in
      let dir = temp_state_dir "corpus-garble" in
      rm_rf dir;
      Unix.mkdir dir 0o755;
      write_lines (Filename.concat dir "corpus.log") [ garbled ];
      match Serve.Corpus.create ~path:(Filename.concat dir "corpus.log") () with
      | exception e -> QCheck.Test.fail_reportf "replay raised %s" (Printexc.to_string e)
      | c ->
          let st = Serve.Corpus.stats c in
          Serve.Corpus.close c;
          rm_rf dir;
          (* A mutated byte may be a newline, which splits the line. *)
          let pieces = String.split_on_char '\n' garbled in
          let ok = List.filter_map (fun l -> Result.to_option (decoded l)) pieces in
          List.for_all whole ok
          && st.Serve.Corpus.replayed = List.length ok
          && st.Serve.Corpus.replayed + st.Serve.Corpus.rejected = List.length pieces)

let test_resynthesize_sweep_refused () =
  let dir = temp_state_dir "resynth-sweep" in
  rm_rf dir;
  let cfg workers =
    { Serve.Pool.default_config with workers; queue_capacity = 4; state_dir = Some dir }
  in
  let refused pool id what =
    match
      Serve.Pool.resynthesize pool
        {
          Serve.Proto.rz_id = id;
          rz_specs = [];
          rz_runs = None;
          rz_moves = None;
          rz_deadline_s = None;
          rz_trace = false;
        }
    with
    | Error e -> Alcotest.(check bool) (what ^ ": the refusal names the sweep") true (contains e "sweep")
    | Ok _ -> Alcotest.failf "%s: a sweep parent must be refused" what
  in
  let pool = Serve.Pool.create (cfg 1) in
  let id =
    ok
      (Serve.Pool.submit pool
         { (submission ~seed:7 ~moves:100 ()) with Serve.Proto.sb_sweep = [ List.hd sweep_variants ] })
  in
  Alcotest.(check string) "sweep finished" "done" (wait_done pool id);
  refused pool id "live";
  Serve.Pool.shutdown pool;
  let pool = Serve.Pool.create (cfg 0) in
  refused pool id "replayed";
  Serve.Pool.shutdown pool;
  rm_rf dir

let () =
  Alcotest.run "serve"
    [
      ( "proto",
        [
          Alcotest.test_case "request round-trip" `Quick test_proto_round_trip;
          Alcotest.test_case "lenient defaults + shape errors" `Quick
            test_proto_lenient_defaults;
          Alcotest.test_case "removed verbs and shards rejected" `Quick
            test_removed_inputs_rejected;
          Alcotest.test_case "sweep round-trip + empty rejection" `Quick
            test_proto_sweep_round_trip;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "failures cached" `Quick test_cache_remembers_failures;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
        ] );
      ( "pool",
        [
          Alcotest.test_case "backpressure" `Quick test_pool_backpressure;
          Alcotest.test_case "priority order" `Quick test_pool_priority_order;
          Alcotest.test_case "cancel queued" `Quick test_pool_cancel_queued;
          Alcotest.test_case "deadline cut" `Slow test_pool_deadline_cut;
          Alcotest.test_case "determinism + trace" `Slow test_pool_determinism_and_trace;
          Alcotest.test_case "shutdown cancels queued" `Quick
            test_pool_shutdown_cancels_queued;
          Alcotest.test_case "wait_s on cancelled queued job" `Quick
            test_pool_wait_s_on_cancelled_queued;
          Alcotest.test_case "failed job cache outcome" `Slow
            test_pool_failed_job_cache_outcome;
          Alcotest.test_case "sharded submit refused" `Quick test_pool_shard_refused;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "validation" `Quick test_pool_sweep_validation;
          Alcotest.test_case "verdict table + one compile per key" `Slow
            test_pool_sweep_verdict_table;
          Alcotest.test_case "byte-identical across worker counts" `Slow
            test_pool_sweep_determinism_vs_workers;
        ] );
      ( "replay",
        [
          Alcotest.test_case "restart replays finished jobs" `Slow test_pool_restart_replay;
          Alcotest.test_case "restart fails interrupted jobs" `Quick
            test_pool_restart_interrupted;
          Alcotest.test_case "garbled finish line rejected" `Slow
            test_replay_rejects_garbled_finish;
          QCheck_alcotest.to_alcotest prop_garbled_lines_rejected;
        ] );
      ( "codec",
        Alcotest.test_case "outcome decode errors name the field" `Quick
          test_outcome_decode_names_field
        :: List.map QCheck_alcotest.to_alcotest codec_props );
      ( "server",
        [
          Alcotest.test_case "end to end over the socket" `Slow test_server_end_to_end;
          Alcotest.test_case "concurrent clients" `Quick test_server_concurrent_clients;
          Alcotest.test_case "connection cap" `Quick test_server_connection_cap;
          Alcotest.test_case "idle timeout" `Quick test_server_idle_timeout;
          Alcotest.test_case "client error attribution" `Quick
            test_client_error_attribution;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "every verb over loopback" `Slow test_tcp_round_trip;
          Alcotest.test_case "partial-line writes" `Quick test_tcp_partial_line_writes;
          Alcotest.test_case "error attribution" `Quick test_tcp_error_attribution;
          Alcotest.test_case "auth gate" `Quick test_auth_required;
          Alcotest.test_case "drain closes the tcp listener" `Quick test_drain_closes_tcp;
        ] );
      ( "rotation",
        [
          Alcotest.test_case "compacts and replays bit-identically" `Slow
            test_log_rotation_compacts_and_replays;
          Alcotest.test_case "live jobs survive rotation" `Quick
            test_log_rotation_keeps_live_jobs;
          Alcotest.test_case "rotation waits for the log to double" `Quick
            test_log_rotation_bounded;
        ] );
      ( "warm-start",
        [
          Alcotest.test_case "protocol round-trips" `Quick test_proto_warm_round_trip;
          Alcotest.test_case "validation" `Quick test_pool_warm_validation;
          Alcotest.test_case "digitless number in a warm submit" `Quick
            test_pool_warm_digitless_number;
          Alcotest.test_case "corpus records and seeds" `Slow
            test_pool_corpus_records_and_seeds;
          Alcotest.test_case "corpus survives a crash, bits unchanged" `Slow
            test_pool_corpus_crash_durability;
          Alcotest.test_case "resynthesize fast path" `Slow test_pool_resynthesize;
          Alcotest.test_case "resynthesize refuses a sweep" `Slow
            test_resynthesize_sweep_refused;
          Alcotest.test_case "corpus replay counts rejected lines" `Quick
            test_corpus_replay_counts_rejected;
          Alcotest.test_case "corpus decode errors name the field" `Quick
            test_corpus_decode_names_field;
          QCheck_alcotest.to_alcotest prop_garbled_corpus_lines;
        ] );
    ]
