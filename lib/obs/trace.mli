(** A trace handle: the telemetry configuration a run carries around — the
    verbosity level, the restart tag stamped on every event, and the sinks
    receiving them. The zero value {!none} makes instrumented code free of
    conditionals: emitting into it is a no-op. *)

type t

(** No tracing; [enabled none _] is [false] for every level. *)
val none : t

val make : ?restart:int -> level:Event.level -> Sink.t list -> t

(** [with_restart t k] is [t] stamping events with restart index [k] —
    how {!Core.Oblx.best_of} gives each of its runs an identity inside a
    shared trace. The copy delivers to the same sinks, so concurrent
    restarts emit into them directly (every built-in {!Sink} is
    domain-safe). *)
val with_restart : t -> int -> t

val restart : t -> int

(** [enabled t l] — events of level [l] will actually be recorded. Guard
    expensive payload construction (state snapshots) with this. *)
val enabled : t -> Event.level -> bool

(** [emit t ~moves ~temperature ~acceptance body] stamps and delivers one
    event, dropping it when the body's level is above the trace level. *)
val emit : t -> moves:int -> temperature:float -> acceptance:float -> Event.body -> unit

(** [close t] closes every sink. *)
val close : t -> unit
