module Json = Obs.Json

type config = {
  socket_path : string;
  tcp : (string * int) option;
  auth_token : string option;
  max_connections : int;
  idle_timeout_s : float;
  pool : Pool.config;
}

let default_max_connections = 32
let default_idle_timeout_s = 30.0

(* ------------------------------------------------------------------ *)
(* Connection registry                                                 *)
(* ------------------------------------------------------------------ *)

(* Each accepted connection gets its own thread (they spend their lives
   blocked in [read]; requests themselves are table lookups, so threads —
   not domains — are the right weight). The registry tracks live fds so
   shutdown can nudge blocked readers awake, and counts
   accepted/rejected connections for [stats]. *)
type registry = {
  r_mutex : Mutex.t;
  r_conns : (int, Unix.file_descr) Hashtbl.t;  (** live connections *)
  r_threads : (int, Thread.t) Hashtbl.t;
  mutable r_dead : Thread.t list;  (** finished, awaiting a reaping join *)
  mutable r_next : int;
  mutable r_total : int;  (** accepted over the daemon's lifetime *)
  mutable r_rejected : int;  (** turned away at the connection cap *)
  mutable r_auth_failures : int;  (** closed after a wrong/missing token *)
}

let registry_create () =
  {
    r_mutex = Mutex.create ();
    r_conns = Hashtbl.create 32;
    r_threads = Hashtbl.create 32;
    r_dead = [];
    r_next = 0;
    r_total = 0;
    r_rejected = 0;
    r_auth_failures = 0;
  }

let with_registry reg f =
  Mutex.lock reg.r_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock reg.r_mutex) f

let num_i i = Json.Num (float_of_int i)

let connections_json cfg reg =
  with_registry reg (fun () ->
      Json.Obj
        [
          ("active", num_i (Hashtbl.length reg.r_conns));
          ("max", num_i cfg.max_connections);
          ("total", num_i reg.r_total);
          ("rejected", num_i reg.r_rejected);
          ("auth_failures", num_i reg.r_auth_failures);
        ])

(* ------------------------------------------------------------------ *)
(* Request dispatch                                                    *)
(* ------------------------------------------------------------------ *)

let handle cfg reg pool stop (req : Proto.request) =
  match req with
  | Proto.Submit s | Proto.Sweep s -> begin
      (* A sweep is a submit whose sb_sweep is non-empty; the decoder
         already rejected an empty variant list, and the pool's own
         validation covers anything handed to it in-process. *)
      match Pool.submit pool s with
      | Ok id -> Proto.ok [ ("id", num_i id) ]
      | Error e -> Proto.err e
    end
  | Proto.Status id -> begin
      match Pool.status_json pool id with
      | Ok j -> Proto.ok [ ("job", j) ]
      | Error e -> Proto.err e
    end
  | Proto.Result id -> begin
      match Pool.result_json pool id with
      | Ok j -> Proto.ok [ ("job", j) ]
      | Error e -> Proto.err e
    end
  | Proto.Cancel id -> begin
      match Pool.cancel pool id with Ok () -> Proto.ok [] | Error e -> Proto.err e
    end
  | Proto.Stats -> begin
      match Pool.stats_json pool with
      | Json.Obj fields ->
          Json.Obj (fields @ [ ("connections", connections_json cfg reg) ])
      | j -> j
    end
  | Proto.Resynthesize r -> begin
      match Pool.resynthesize pool r with
      | Ok id -> Proto.ok [ ("id", num_i id) ]
      | Error e -> Proto.err e
    end
  | Proto.Corpus_lookup shape ->
      Proto.ok
        [
          ( "entries",
            Json.Arr
              (List.map Corpus.entry_to_json (Pool.corpus_lookup pool ~shape)) );
        ]
  | Proto.Ping -> Proto.ok []
  | Proto.Shutdown ->
      Atomic.set stop true;
      Proto.ok [ ("shutting_down", Json.Bool true) ]

(* One connection: requests line by line until EOF, idle timeout, or
   shutdown. A malformed line gets an error response rather than a dropped
   connection, so a misbehaving client can diagnose itself.

   With an auth token configured, the first line must be {"auth":TOKEN}.
   Success is silent (the client pipelines auth + request); anything else
   — wrong token, or a first line that is not an auth line at all — gets
   exactly one ok:false response, then the connection closes. The read
   timeout is already armed, so a connection that never sends its token is
   shed by the same clock as an idle one. *)
let serve_connection cfg reg pool stop fd =
  (try
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO cfg.idle_timeout_s;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO cfg.idle_timeout_s
   with Unix.Unix_error _ -> ());
  let reader = Proto.line_reader fd in
  let authed =
    match cfg.auth_token with
    | None -> true
    | Some token -> begin
        match Proto.read_line reader with
        | None -> false (* EOF before a token: nothing to answer *)
        | Some line -> begin
            let presented =
              match Json.of_string line with
              | Ok j -> Proto.auth_of_json j
              | Error _ -> None
            in
            match presented with
            | Some p when Proto.token_equal p token -> true
            | Some _ | None ->
                with_registry reg (fun () ->
                    reg.r_auth_failures <- reg.r_auth_failures + 1);
                (try Proto.write_line fd (Proto.err Proto.auth_failed_message)
                 with Unix.Unix_error _ | Sys_error _ -> ());
                false
          end
      end
  in
  let rec loop () =
    if Atomic.get stop then ()
    else
      match Proto.read_line reader with
      | None -> ()
      | Some line when String.trim line = "" -> loop ()
      | Some line ->
          (match Json.of_string line with
          | Error e -> Proto.write_line fd (Proto.err (Printf.sprintf "bad JSON: %s" e))
          | Ok j -> begin
              match Proto.request_of_json j with
              | Error e ->
                  Proto.write_line fd (Proto.err (Printf.sprintf "bad request: %s" e))
              | Ok req -> Proto.write_line fd (handle cfg reg pool stop req)
            end);
          loop ()
  in
  (* EAGAIN is the idle timeout expiring between requests (or before the
     auth line ever arrived): the connection has gone quiet, reclaim its
     slot. A client that vanished mid-response (EPIPE, reset) is its
     problem, not the daemon's. *)
  (if authed then try loop () with Sys_error _ | Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Accept loop                                                         *)
(* ------------------------------------------------------------------ *)

let spawn_connection cfg reg pool stop fd =
  (* Reap finished threads first so the bookkeeping stays O(live). *)
  let dead =
    with_registry reg (fun () ->
        let d = reg.r_dead in
        reg.r_dead <- [];
        d)
  in
  List.iter Thread.join dead;
  let admitted =
    with_registry reg (fun () ->
        if Hashtbl.length reg.r_conns >= cfg.max_connections then begin
          reg.r_rejected <- reg.r_rejected + 1;
          false
        end
        else begin
          let id = reg.r_next in
          reg.r_next <- id + 1;
          reg.r_total <- reg.r_total + 1;
          Hashtbl.replace reg.r_conns id fd;
          let thread =
            Thread.create
              (fun () ->
                Fun.protect
                  ~finally:(fun () ->
                    with_registry reg (fun () ->
                        Hashtbl.remove reg.r_conns id;
                        Hashtbl.remove reg.r_threads id;
                        reg.r_dead <- Thread.self () :: reg.r_dead))
                  (fun () -> serve_connection cfg reg pool stop fd))
              ()
          in
          (* The finally above also takes [r_mutex], so this registration
             always lands before the thread's own deregistration. *)
          Hashtbl.replace reg.r_threads id thread;
          true
        end)
  in
  if not admitted then begin
    (* Over the cap: refuse with one error line, then close. The short
       send timeout keeps a non-reading client from wedging the accept
       loop. *)
    (try
       Unix.setsockopt_float fd Unix.SO_SNDTIMEO 1.0;
       Proto.write_line fd (Proto.err (Proto.busy_message cfg.max_connections))
     with Unix.Unix_error _ | Sys_error _ -> ());
    try Unix.close fd with Unix.Unix_error _ -> ()
  end

let run ?ready ?tcp_port config =
  let stop = Atomic.make false in
  (* Graceful signals: finish in-flight responses, then drain. SIGPIPE
     must not kill the daemon when a client disconnects mid-write. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let on_signal _ = Atomic.set stop true in
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal) with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal) with Invalid_argument _ -> ());
  let unix_listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink config.socket_path with Unix.Unix_error _ -> ());
  Unix.bind unix_listener (Unix.ADDR_UNIX config.socket_path);
  Unix.listen unix_listener 64;
  (* The TCP listener rides next to the Unix socket: same protocol, same
     dispatch, plus the auth gate. Binding port 0 picks an ephemeral port,
     reported through [tcp_port] — how tests and the smoke script find a
     daemon they booted on a port nobody chose in advance. *)
  let tcp_listener =
    match config.tcp with
    | None -> None
    | Some (host, port) ->
        let addr =
          if host = "" || host = "*" then Unix.inet_addr_any
          else begin
            try Unix.inet_addr_of_string host
            with Failure _ -> (
              match Unix.getaddrinfo host "" [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ] with
              | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
              | _ -> Unix.inet_addr_loopback)
          end
        in
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (addr, port));
        Unix.listen fd 64;
        (match (tcp_port, Unix.getsockname fd) with
        | Some f, Unix.ADDR_INET (_, bound) -> f bound
        | _ -> ());
        Some fd
  in
  let pool = Pool.create config.pool in
  let reg = registry_create () in
  (match ready with Some f -> f () | None -> ());
  let listeners = unix_listener :: Option.to_list tcp_listener in
  let accept_from listener =
    match Unix.accept listener with
    | fd, _ ->
        (* TCP accepts inherit Nagle; every response is one small line, so
           flush it immediately. *)
        (if Some listener = tcp_listener then
           try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
        spawn_connection config reg pool stop fd
    | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> ()
  in
  let rec accept_loop () =
    if Atomic.get stop then ()
    else begin
      (* Select with a short timeout so a signal or shutdown request is
         honoured even while no client is connecting. *)
      (match Unix.select listeners [] [] 0.25 with
      | readable, _, _ -> List.iter accept_from readable
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      accept_loop ()
    end
  in
  accept_loop ();
  (* Graceful drain: close every listener first — both transports stop
     accepting the moment shutdown begins, so no connection can slip in
     half-authenticated while the daemon is dying. Then nudge connection
     threads: ones blocked *in* a read get their read side shut down,
     which reads as EOF — the response they were writing has already
     flushed (writes complete before the loop returns to read). Join
     everything before the pool stops and the socket file unlinks. *)
  List.iter (fun l -> try Unix.close l with Unix.Unix_error _ -> ()) listeners;
  let threads =
    with_registry reg (fun () ->
        Hashtbl.iter
          (fun _ fd -> try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
          reg.r_conns;
        let live = Hashtbl.fold (fun _ th acc -> th :: acc) reg.r_threads [] in
        let dead = reg.r_dead in
        reg.r_dead <- [];
        live @ dead)
  in
  List.iter Thread.join threads;
  Pool.shutdown pool;
  try Unix.unlink config.socket_path with Unix.Unix_error _ -> ()
