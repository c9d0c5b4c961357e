(** The oblxd daemon loop: listeners speaking the JSONL protocol of
    {!Proto}, dispatching into a {!Pool}.

    Two transports share one dispatch: the Unix-domain socket (always),
    and an optional TCP listener ([config.tcp]) for remote clients. TCP carries the same line protocol; with
    [auth_token] set, every connection (both transports) must present
    [{"auth":TOKEN}] as its first line — success is silent, anything
    else gets exactly one [ok:false] line ({!Proto.auth_failed_message})
    and the connection closes. A connection that never sends its token
    is shed by the idle timeout, like any other quiet connection.

    Connections are served {e concurrently}: each accepted connection gets
    its own thread (requests are table lookups; synthesis happens on the
    pool's worker domains), so a slow or idle client cannot starve
    another client's [stats]. A connection may carry many requests,
    pipelined one line at a time; the bundled {!Client} still opens one
    per request. Beyond [max_connections] live connections, new ones are
    answered with one [ok:false] line ({!Proto.busy_message}) and closed.
    A connection idle longer than [idle_timeout_s] between requests is
    closed to reclaim its slot. *)

type config = {
  socket_path : string;
  tcp : (string * int) option;
      (** also listen on [HOST:PORT]; port 0 binds an ephemeral port,
          reported through [run]'s [tcp_port] callback *)
  auth_token : string option;
      (** shared secret required as the first line of every connection *)
  max_connections : int;  (** live-connection cap; see {!default_max_connections} *)
  idle_timeout_s : float;
      (** quiet time between requests before a connection is dropped;
          also the deadline for the auth line *)
  pool : Pool.config;
}

val default_max_connections : int
(** 32 — plenty for one-socket local traffic while bounding thread count. *)

val default_idle_timeout_s : float
(** 30 s. *)

(** [run ?ready ?tcp_port config] binds [config.socket_path]
    (unlinking a stale socket file first) and, when configured, the TCP
    listener; starts the pool; and serves until a [shutdown] request or
    SIGINT/SIGTERM arrives. Then it drains
    gracefully — closes {e both} listeners first so nothing new (not
    even a half-authenticated connection) slips in, lets every in-flight
    response flush, joins the connection threads, shuts the pool down —
    and removes the socket file. [ready] fires once the listeners are
    accepting; [tcp_port] fires earlier with the bound TCP port (the
    ephemeral port when [config.tcp] asked for port 0). *)
val run :
  ?ready:(unit -> unit) -> ?tcp_port:(int -> unit) -> config -> unit
