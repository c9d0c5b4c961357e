(** Content-addressed compile cache: the ASTRX pipeline (parse, elaborate,
    derive constraints, generate the cost-function evaluator) is pure in
    the problem description, so its output can be keyed by the canonical
    hash of {!Netlist.Canon} and reused across submissions. This is what
    lets a synthesis service absorb the dominant re-submission workload —
    the same topology posted over and over with different seeds or budgets
    — at the cost of one compile.

    Safe to share between domains: lookups and insertions are
    mutex-serialized, and the cached {!Problem.t} itself is already shared
    across domains by {!Oblx.best_of}, so handing the same instance to
    concurrent jobs adds no new aliasing. Two workers racing to compile
    the same fresh key may both compile (the second insert wins); the work
    is merely duplicated, never wrong. *)

type t

type outcome = Hit | Miss

type stats = {
  hits : int;
  misses : int;
  entries : int;  (** currently cached (successes and failures) *)
  evictions : int;
  capacity : int;
}

(** [create ?capacity ()] — [capacity] (default 64) bounds the entry
    count; least-recently-used entries are evicted beyond it. *)
val create : ?capacity:int -> unit -> t

val stats : t -> stats

(** [key_of_source ?corner src] — the cache key:
    {!Netlist.Canon.problem_hash} of the parsed description, qualified by
    the device corner's name ([hash@corner]) when one is given. The
    nominal corner (and [None]) keep the bare hash, so a nominal compile
    and a corner-free one share an entry. [Error] on a parse failure
    (formatted exactly like {!Compile.compile_source}'s). *)
val key_of_source : ?corner:Devices.Registry.corner -> string -> (string, string) result

(** [compile t ?corner ~source] — parse, hash, and return the cached
    compile for that [(canon, corner)] key, or compile at that corner and
    remember. Failed compiles are cached too (with their message), so a
    hammering client re-posting a broken description costs one compile,
    not one per submission. The [outcome] tells whether this call hit the
    cache — on both branches: a cached failure replays as
    [Error (msg, Hit)], so a job record can report the true hit/miss even
    when the compile failed. A parse error (no canonical key to cache
    under) is always [Error (msg, Miss)]. *)
val compile :
  t ->
  ?corner:Devices.Registry.corner ->
  source:string ->
  unit ->
  (Problem.t * outcome, string * outcome) result
