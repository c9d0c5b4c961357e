(* oblxd — the synthesis daemon: a Unix-socket JSONL service around the
   ASTRX compile cache and an OBLX worker pool (docs/SERVER.md).

     oblxd --socket oblxd.sock --workers 4 --queue 64
     astrx submit simple-ota --seed 7 --wait

   With --tcp it also listens on TCP for remote clients, gated by the
   shared secret of --auth-token-file (docs/SERVER.md).

   Runs in the foreground until a shutdown request or SIGINT/SIGTERM. *)

open Cmdliner

let socket_arg =
  Arg.(
    value
    & opt string "oblxd.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket to listen on")

let tcp_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "tcp" ] ~docv:"HOST:PORT"
        ~doc:
          "Also listen on TCP (same protocol; remote clients connect here). Port 0 binds an \
           ephemeral port and prints it at startup")

let auth_token_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "auth-token-file" ] ~docv:"FILE"
        ~doc:
          "Shared secret (first line of FILE) required as the first line of every \
           connection, so remote clients must present it")

let log_rotate_bytes_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "log-rotate-bytes" ] ~docv:"BYTES"
        ~doc:
          "Compact state-dir/jobs.log once it exceeds BYTES and twice its size after the \
           previous compaction (one terminal record per finished job), so the log may reach \
           twice its compacted size; default: never rotate")

let workers_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "workers" ] ~docv:"N"
        ~doc:"Worker domains running jobs (default: cores - 1)")

let queue_arg =
  Arg.(
    value
    & opt int 64
    & info [ "queue" ] ~docv:"N"
        ~doc:"Queue capacity; submissions beyond it are rejected with a reason")

let cache_arg =
  Arg.(
    value
    & opt int 64
    & info [ "cache" ] ~docv:"N" ~doc:"Compile-cache capacity (problems, LRU-evicted)")

let state_dir_arg =
  Arg.(
    value
    & opt (some string) (Some "oblxd-state")
    & info [ "state-dir" ] ~docv:"DIR"
        ~doc:
          "Directory receiving one job-<id>.json per finished job; --no-state disables")

let no_state_arg =
  Arg.(value & flag & info [ "no-state" ] ~doc:"Keep no on-disk job records")

let default_moves_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "default-moves" ] ~docv:"N"
        ~doc:
          "Move budget for submissions that do not set one (default: OBLX's per-problem \
           budget, which can be large — production deployments should cap it)")

let max_connections_arg =
  Arg.(
    value
    & opt int Serve.Server.default_max_connections
    & info [ "max-connections" ] ~docv:"N"
        ~doc:
          "Live-connection cap; connections beyond it are answered with an error line and \
           closed")

let idle_timeout_arg =
  Arg.(
    value
    & opt float Serve.Server.default_idle_timeout_s
    & info [ "idle-timeout" ] ~docv:"SECONDS"
        ~doc:"Drop a connection this quiet between requests (frees its slot)")

let warm_start_arg =
  Arg.(
    value
    & flag
    & info [ "warm-start" ]
        ~doc:
          "Seed a fraction of each submission's annealing restarts from the winner corpus \
           (prior winners for the same circuit shape). Off by default: cold-path results \
           are bit-identical to a corpus-free daemon. Recording winners is always on")

let warm_fraction_arg =
  Arg.(
    value
    & opt float 0.5
    & info [ "warm-fraction" ] ~docv:"F"
        ~doc:
          "With --warm-start: at most this fraction of a job's restarts get warm seeds \
           (floored; the rest stay cold so the search keeps exploring)")

let corpus_capacity_arg =
  Arg.(
    value
    & opt int 256
    & info [ "corpus-capacity" ] ~docv:"N"
        ~doc:
          "Winner-corpus bound (entries, worst-cost-evicted); journaled in \
           state-dir/corpus.log")

let quiet_arg = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No startup banner")

let parse_tcp s =
  match String.rindex_opt s ':' with
  | None -> Error (Printf.sprintf "--tcp %s: expected HOST:PORT" s)
  | Some i -> begin
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p >= 0 && p <= 65535 -> Ok (host, p)
      | _ -> Error (Printf.sprintf "--tcp %s: bad port %S" s port)
    end

let read_token file =
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> match input_line ic with line -> String.trim line | exception End_of_file -> "")

let run socket tcp auth_token_file log_rotate_bytes workers queue cache
    state_dir no_state default_moves warm_start warm_fraction corpus_capacity max_connections idle_timeout quiet =
  let workers = match workers with Some w -> Int.max 0 w | None -> Core.Oblx.default_jobs () in
  let state_dir = if no_state then None else state_dir in
  match (match tcp with None -> Ok None | Some s -> Result.map Option.some (parse_tcp s)) with
  | Error e ->
      prerr_endline ("oblxd: " ^ e);
      2
  | Ok tcp -> begin
      match
        match auth_token_file with
        | None -> Ok None
        | Some f -> begin
            match read_token f with
            | "" -> Error (Printf.sprintf "oblxd: --auth-token-file %s: empty token" f)
            | tok -> Ok (Some tok)
            | exception Sys_error e -> Error ("oblxd: " ^ e)
          end
      with
      | Error e ->
          prerr_endline e;
          2
      | Ok auth_token ->
          let cfg =
            {
              Serve.Server.socket_path = socket;
              tcp;
              auth_token;
              max_connections = Int.max 1 max_connections;
              idle_timeout_s = idle_timeout;
              pool =
                {
                  Serve.Pool.workers;
                  queue_capacity = queue;
                  cache_capacity = cache;
                  state_dir;
                  default_moves;
                  log_rotate_bytes;
                  warm = warm_start;
                  warm_fraction = Float.max 0.0 (Float.min 1.0 warm_fraction);
                  corpus_capacity = Int.max 1 corpus_capacity;
                };
            }
          in
          let bound_tcp = ref None in
          let tcp_port p = bound_tcp := Some p in
          let ready () =
            if not quiet then begin
              Printf.printf
                "oblxd: listening on %s (%d worker%s, queue %d, cache %d, max %d \
                 connections)\n\
                 %!"
                socket workers
                (if workers = 1 then "" else "s")
                queue cache (Int.max 1 max_connections);
              (match (tcp, !bound_tcp) with
              | Some (host, _), Some port ->
                  Printf.printf "oblxd: tcp on %s:%d%s\n%!"
                    (if host = "" then "*" else host)
                    port
                    (if auth_token = None then " (no auth token!)" else "")
              | _ -> ());
              (match state_dir with
              | Some d -> Printf.printf "oblxd: job records and jobs.log in %s/\n%!" d
              | None -> ());
              if warm_start then
                Printf.printf "oblxd: warm-start on (fraction %.2f, corpus capacity %d)\n%!"
                  (Float.max 0.0 (Float.min 1.0 warm_fraction))
                  (Int.max 1 corpus_capacity)
            end
          in
          (match Serve.Server.run ~ready ~tcp_port cfg with
          | () ->
              if not quiet then print_endline "oblxd: drained, bye";
              0
          | exception Unix.Unix_error (e, fn, arg) ->
              Printf.eprintf "oblxd: %s(%s): %s\n" fn arg (Unix.error_message e);
              1)
    end

let () =
  let doc = "OBLX synthesis daemon (JSONL over a Unix socket, optionally TCP)" in
  let info = Cmd.info "oblxd" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.v info
          Term.(
            const run $ socket_arg $ tcp_arg $ auth_token_file_arg $ log_rotate_bytes_arg
            $ workers_arg $ queue_arg $ cache_arg
            $ state_dir_arg $ no_state_arg $ default_moves_arg $ warm_start_arg
            $ warm_fraction_arg $ corpus_capacity_arg $ max_connections_arg
            $ idle_timeout_arg $ quiet_arg)))
