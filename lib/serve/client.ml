module Json = Obs.Json

(* ------------------------------------------------------------------ *)
(* Endpoints                                                           *)
(* ------------------------------------------------------------------ *)

type endpoint = Unix_sock of string | Tcp of string * int

(* One string names both transports: "unix:PATH" / "tcp:HOST:PORT"
   explicitly, or a bare string — "HOST:PORT" when the suffix after the
   last ':' is a port number and the string is not a filesystem path,
   otherwise a Unix socket path. Paths contain '/' in practice (the
   daemon's default is absolute), so a bare "host:4242" is unambiguous. *)
let parse_endpoint s =
  let host_port str ~ctx =
    match String.rindex_opt str ':' with
    | None -> Error (Printf.sprintf "%s: expected HOST:PORT, got %S" ctx str)
    | Some i -> begin
        let host = String.sub str 0 i in
        let port = String.sub str (i + 1) (String.length str - i - 1) in
        match int_of_string_opt port with
        | Some p when p >= 0 && p < 65536 && host <> "" -> Ok (Tcp (host, p))
        | Some _ | None -> Error (Printf.sprintf "%s: bad port in %S" ctx str)
      end
  in
  match String.index_opt s ':' with
  | _ when String.length s > 5 && String.sub s 0 5 = "unix:" ->
      Ok (Unix_sock (String.sub s 5 (String.length s - 5)))
  | _ when String.length s > 4 && String.sub s 0 4 = "tcp:" ->
      host_port (String.sub s 4 (String.length s - 4)) ~ctx:"tcp endpoint"
  | Some _ when not (String.contains s '/') -> begin
      match host_port s ~ctx:"endpoint" with Ok e -> Ok e | Error _ -> Ok (Unix_sock s)
    end
  | Some _ | None -> Ok (Unix_sock s)

let endpoint_to_string = function
  | Unix_sock p -> p
  | Tcp (h, p) -> Printf.sprintf "%s:%d" h p

let connect_endpoint = function
  | Unix_sock path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (fd, Unix.ADDR_UNIX path)
  | Tcp (host, port) ->
      let addr =
        match Unix.getaddrinfo host (string_of_int port) [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ] with
        | { Unix.ai_addr; _ } :: _ -> ai_addr
        | [] -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)
      in
      let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
      (fd, addr)

(* Failure attribution matters to whoever is holding the pager: a connect
   failure means "no daemon there" (wrong path, not started, crashed); an
   EAGAIN after a successful connect is the socket timeout expiring on a
   daemon that accepted but never answered — a very different bug. Keep
   the two reports distinct. *)
let request ~socket ?(timeout_s = 30.0) ?auth j =
  match parse_endpoint socket with
  | Error e -> Error e
  | Ok ep -> begin
      let fd, addr = connect_endpoint ep in
      let cleanup () = try Unix.close fd with Unix.Unix_error _ -> () in
      let where = endpoint_to_string ep in
      match Unix.connect fd addr with
      | exception Unix.Unix_error (err, _, _) ->
          cleanup ();
          Error
            (Printf.sprintf "cannot reach oblxd at %s: %s — is the daemon running?" where
               (Unix.error_message err))
      | () -> begin
          match
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
            Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout_s;
            (* Auth is pipelined: token line then request line, one read.
               A daemon that rejects the token answers the auth line with
               its single ok:false verdict, which is then what we read. *)
            (try
               (match auth with
               | Some token -> Proto.write_line fd (Proto.auth_to_json token)
               | None -> ());
               Proto.write_line fd j
             with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
               (* The daemon answered and closed before reading the request
                  — its connection-cap refusal does — so its verdict may be
                  waiting unread: report that, not the failed write. *)
               ());
            Proto.read_line (Proto.line_reader fd)
          with
          | Some line -> begin
              cleanup ();
              match Json.of_string line with
              | Ok v -> Ok v
              | Error e -> Error (Printf.sprintf "malformed response: %s" e)
            end
          | None ->
              cleanup ();
              Error "connection closed by daemon before a response arrived"
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
              cleanup ();
              Error
                (Printf.sprintf
                   "oblxd at %s did not respond within %.0f s — daemon wedged or overloaded?"
                   where timeout_s)
          | exception Unix.Unix_error (err, _, _) ->
              cleanup ();
              Error
                (Printf.sprintf "lost connection to oblxd at %s: %s" where
                   (Unix.error_message err))
          | exception Sys_error e ->
              cleanup ();
              Error e
        end
    end

(* A protocol-level failure (ok:false) folds into the Error channel here so
   callers see one kind of failure. *)
let checked ~socket ?timeout_s ?auth req =
  match request ~socket ?timeout_s ?auth (Proto.request_to_json req) with
  | Error e -> Error e
  | Ok resp -> begin
      match Proto.response_error resp with Some e -> Error e | None -> Ok resp
    end

let id_of resp =
  match Json.mem_opt "id" resp with
  | Some v -> Ok (Json.to_int v)
  | None -> Error "submit response carries no id"

let submit ~socket ?timeout_s ?auth s =
  Result.bind (checked ~socket ?timeout_s ?auth (Proto.Submit s)) id_of

let sweep ~socket ?timeout_s ?auth s =
  if s.Proto.sb_sweep = [] then Error "sweep: at least one variant required"
  else Result.bind (checked ~socket ?timeout_s ?auth (Proto.Sweep s)) id_of

let job_of resp =
  match Json.mem_opt "job" resp with
  | Some j -> Ok j
  | None -> Error "response carries no job record"

let status ~socket ?timeout_s ?auth id =
  Result.bind (checked ~socket ?timeout_s ?auth (Proto.Status id)) job_of

let result ~socket ?timeout_s ?auth id =
  Result.bind (checked ~socket ?timeout_s ?auth (Proto.Result id)) job_of

let cancel ~socket ?timeout_s ?auth id =
  Result.map (fun _ -> ()) (checked ~socket ?timeout_s ?auth (Proto.Cancel id))

let stats ~socket ?timeout_s ?auth () = checked ~socket ?timeout_s ?auth Proto.Stats

let shutdown ~socket ?timeout_s ?auth () =
  Result.map (fun _ -> ()) (checked ~socket ?timeout_s ?auth Proto.Shutdown)

let ping ~socket ?timeout_s ?auth () =
  Result.map (fun _ -> ()) (checked ~socket ?timeout_s ?auth Proto.Ping)

let resynthesize ~socket ?timeout_s ?auth r =
  Result.bind (checked ~socket ?timeout_s ?auth (Proto.Resynthesize r)) id_of

let corpus_lookup ~socket ?timeout_s ?auth shape =
  match checked ~socket ?timeout_s ?auth (Proto.Corpus_lookup shape) with
  | Error e -> Error e
  | Ok resp -> begin
      match Json.mem_opt "entries" resp with
      | Some (Json.Arr es) ->
          let rec decode acc = function
            | [] -> Ok (List.rev acc)
            | e :: rest -> begin
                match Corpus.entry_of_json e with
                | Ok entry -> decode (entry :: acc) rest
                | Error m -> Error (Printf.sprintf "corpus_lookup: %s" m)
              end
          in
          decode [] es
      | Some _ | None -> Error "corpus_lookup response carries no entries"
    end

let wait ~socket ?(poll_s = 0.05) ?(timeout_s = 600.0) ?auth id =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    match status ~socket ?auth id with
    | Error e -> Error e
    | Ok job -> begin
        match Json.mem_opt "state" job with
        | Some (Json.Str ("queued" | "running")) ->
            if Unix.gettimeofday () -. t0 > timeout_s then
              Error (Printf.sprintf "job %d still not finished after %.0f s" id timeout_s)
            else begin
              Unix.sleepf poll_s;
              go ()
            end
        | Some (Json.Str _) -> result ~socket ?auth id
        | Some _ | None -> Error "status response carries no state"
      end
  in
  go ()
