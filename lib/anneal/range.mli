(** Per-variable move-range limiting (Swartz-style): each continuous
    variable carries a step scale that grows on accepted moves and shrinks
    on rejections, steering per-variable acceptance toward the schedule's
    setpoint. This is how OBLX explores volts early and converges to
    microvolts at freeze without problem-specific step constants. *)

type t

(** [create ~n ~initial ~min_step ~max_step] — one scale per variable. *)
val create : n:int -> initial:float array -> min_step:float array -> max_step:float array -> t

val step : t -> int -> float

(** [record t i ~accepted] multiplicatively adapts variable [i]'s scale. *)
val record : t -> int -> accepted:bool -> unit
