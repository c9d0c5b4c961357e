(** Pluggable telemetry sinks. A sink consumes {!Event.t} values. Every
    built-in sink serializes [emit] through its own mutex, so one sink can
    be shared by the concurrent restarts of a domain-parallel
    {!Core.Oblx.best_of}: each event arrives whole, each restart's events
    arrive in their emission order, and the interleaving between restarts
    is up to the scheduler (events carry their restart tag). *)

type t = {
  emit : Event.t -> unit;
  close : unit -> unit;  (** flush and release resources; idempotent *)
}

(** [jsonl_file path] writes one JSON object per line to a fresh file,
    flushed per event; [close] closes it. *)
val jsonl_file : string -> t

(** Bounded in-memory ring buffer: keeps the most recent [capacity]
    events. *)
module Ring : sig
  type ring

  val create : capacity:int -> ring
  val sink : ring -> t
  val length : ring -> int
  val dropped : ring -> int  (** events evicted since creation *)

  val contents : ring -> Event.t list  (** oldest first *)
end

(** Streaming summary statistics. Counters and the move-class mix are
    folded as events arrive; every [Stage] event is kept as a
    {!stage_row} (and the latest [Evals] snapshot per restart), so memory
    grows with the stages observed — meant for one bench or one run, not
    for a long-lived process. *)
module Summary : sig
  type summary

  type stage_row = {
    sr_restart : int;
    sr_stage : int;
    sr_moves : int;
    sr_temperature : float;
    sr_acceptance : float;
    sr_cost : float;
    sr_best : float;
  }

  type class_row = {
    cr_name : string;
    cr_attempts : int;
    cr_accepted : int;
    cr_inapplicable : int;
  }

  type stats = {
    events : int;
    restarts : int;
    moves : int;  (** decided moves across all restarts *)
    accepted : int;
    best_cost : float;  (** lowest [Done.best_cost] seen, else [infinity] *)
    stage_rows : stage_row list;  (** in emission order *)
    class_rows : class_row list;  (** move-class mix, by class name *)
    eval_rows : (int * Event.evals_data) list;
        (** latest incremental-evaluation counters per restart *)
    aborts : (int * string) list;  (** (restart, reason) for cut-short runs *)
  }

  val create : unit -> summary
  val sink : summary -> t
  val stats : summary -> stats
end
