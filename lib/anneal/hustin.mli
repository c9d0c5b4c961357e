(** Hustin's adaptive move-class selection (from the TIM placement tool,
    adopted by OBLX): each move class accumulates a quality statistic —
    the cost change it produces on accepted moves per attempt — and classes
    are then drawn with probability proportional to quality, with a floor
    probability so no class starves. Statistics decay periodically so the
    mix tracks the phase of the anneal (random moves early,
    gradient/Newton moves near convergence). *)

type t

val create : classes:string array -> t
val class_name : t -> int -> string

(** [pick t rng] draws a class index. *)
val pick : t -> Rng.t -> int

(** [record t k ~accepted ~delta_cost] — call after each attempted move of
    class [k]. *)
val record : t -> int -> accepted:bool -> delta_cost:float -> unit

(** [probabilities t] is the current selection distribution (sums to 1). *)
val probabilities : t -> float array

(** [to_probs t] = {!probabilities} — the value to persist so a later run
    can warm-start its move selection from this one's converged mix. *)
val to_probs : t -> float array

(** [of_probs ~classes probs] restores a selector from a saved
    distribution. The restored distribution is served verbatim —
    [to_probs (of_probs ~classes p)] is exactly [p], bit for bit — until
    the first {!record}, after which seeded pseudo-count statistics (which
    the selection formula maps back to approximately [p]) take over and
    adapt normally. Raises [Invalid_argument] on an arity mismatch or a
    negative/non-finite probability. *)
val of_probs : classes:string array -> float array -> t
