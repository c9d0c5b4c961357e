(** Client side of the oblxd protocol: one connection per request (the
    daemon serves connections concurrently, but a fresh connection per
    request keeps the client trivially correct and leaves no idle
    connection holding a slot), with socket timeouts so a wedged daemon
    surfaces as an [Error], never a hang. Used by the
    [astrx submit|status|...] subcommands, the serve benches, and the CI
    smoke tests.

    Every entry point takes the daemon's address as an endpoint string:
    a Unix socket path ("/run/oblxd.sock", or explicitly "unix:PATH") or
    a TCP address ("host:4242", or explicitly "tcp:HOST:PORT"). [?auth]
    supplies the daemon's shared secret; it is pipelined as the
    connection's first line, so an authenticated request still costs one
    round trip. *)

type endpoint = Unix_sock of string | Tcp of string * int

(** [parse_endpoint s] — "unix:PATH" and "tcp:HOST:PORT" are explicit; a
    bare string is TCP when it looks like HOST:PORT (no '/', numeric
    port), a Unix socket path otherwise. *)
val parse_endpoint : string -> (endpoint, string) result

val endpoint_to_string : endpoint -> string

(** [request ~socket ?timeout_s ?auth j] sends one JSON line and reads one
    JSON line back. [Error] distinguishes the failure classes an operator
    debugs differently: ["cannot reach oblxd …"] (connect failed — daemon
    not running or wrong address) vs ["… did not respond within N s"]
    (connected, then the socket timeout expired — daemon wedged or
    overloaded) vs transport-level garbage. Protocol-level failures come
    back as [Ok] responses with ["ok":false] — test with
    {!Proto.response_error}. A rejected [?auth] token surfaces as the
    daemon's single ok:false line. *)
val request :
  socket:string -> ?timeout_s:float -> ?auth:string -> Obs.Json.t -> (Obs.Json.t, string) result

(* Typed wrappers; each is [request] on the corresponding {!Proto.request}
   with ["ok"] checked. *)

val submit :
  socket:string -> ?timeout_s:float -> ?auth:string -> Proto.submit -> (int, string) result

(** [sweep ~socket s] — the batch verb: [s.sb_sweep] must be non-empty.
    The returned id resolves (via {!wait}/{!result}) to a job record
    whose ["sweep"] field is the per-variant verdict table. *)
val sweep :
  socket:string -> ?timeout_s:float -> ?auth:string -> Proto.submit -> (int, string) result

val status :
  socket:string -> ?timeout_s:float -> ?auth:string -> int -> (Obs.Json.t, string) result

val result :
  socket:string -> ?timeout_s:float -> ?auth:string -> int -> (Obs.Json.t, string) result

val cancel : socket:string -> ?timeout_s:float -> ?auth:string -> int -> (unit, string) result
val stats : socket:string -> ?timeout_s:float -> ?auth:string -> unit -> (Obs.Json.t, string) result

val shutdown :
  socket:string -> ?timeout_s:float -> ?auth:string -> unit -> (unit, string) result

(** [ping ~socket ()] — liveness probe; [Ok ()] when the daemon answered. *)
val ping : socket:string -> ?timeout_s:float -> ?auth:string -> unit -> (unit, string) result

(** [resynthesize ~socket r] — the warm fast path: rerun finished job
    [r.rz_id] with tweaked spec targets, seeded from its recorded winner,
    on a reduced schedule. Returns the new job's id. *)
val resynthesize :
  socket:string -> ?timeout_s:float -> ?auth:string -> Proto.resynth -> (int, string) result

(** [corpus_lookup ~socket shape] — the daemon's winner-corpus entries
    for a shape hash, best cost first (possibly []). *)
val corpus_lookup :
  socket:string ->
  ?timeout_s:float ->
  ?auth:string ->
  string ->
  (Corpus.entry list, string) result

(** [wait ~socket ?poll_s ?timeout_s id] polls [status] until the job
    leaves [queued]/[running] (default poll 50 ms, timeout 600 s), then
    returns the full [result] response's ["job"] object. *)
val wait :
  socket:string ->
  ?poll_s:float ->
  ?timeout_s:float ->
  ?auth:string ->
  int ->
  (Obs.Json.t, string) result
