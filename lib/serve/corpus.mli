(** The winner corpus: each finished job's winning design vector, final
    cost, and end-of-run Hustin move-class distribution, keyed by the
    problem's {e shape} hash ({!Netlist.Canon.problem_shape_hash} — the
    canonical form with spec target values dropped), so a re-submission of
    the same circuit with tweaked specs finds its predecessors and the
    pool can seed a fraction of its annealing restarts from prior winners.

    Bounded in memory (a few best-cost entries per shape, a total entry
    cap), journal-backed on disk ([state_dir/corpus.log], JSONL, one entry
    per line, replayed on restart and compacted via tmp+rename so a
    kill -9 never tears it). Entries are plain data and cross the wire
    ([corpus_lookup]) as the same JSON object the journal stores.

    Note the corpus is an {e optimization input}, not part of a job's
    identity: the pool snapshots the corpus at submit time into the job's
    recorded inputs (the journaled submit wrap), so a rerun replaying that
    snapshot is bit-identical even though the live corpus has moved on. *)

type entry = {
  en_shape : string;  (** {!Netlist.Canon.problem_shape_hash} of the source *)
  en_canon : string;  (** full {!Netlist.Canon.problem_hash} — provenance *)
  en_job : int;  (** job id on the daemon that ran it *)
  en_name : string;  (** the job's human label *)
  en_cost : float;  (** winner's best cost *)
  en_values : float array;  (** winning variable vector, NR-polished *)
  en_grid : int array;  (** matching grid indices *)
  en_probs : float array;
      (** end-of-run Hustin distribution; [[||]] when not recorded *)
}

(** [warm_start_of_entry e] — the {!Core.Oblx.warm_start} seed this entry
    provides (empty [en_probs] maps to no prior), labelled
    ["corpus:job<id>:<name>"], the provenance {!Core.Oblx.result.warm}
    records when a restart seeded from [e] wins. *)
val warm_start_of_entry : entry -> Core.Oblx.warm_start

val entry_to_json : entry -> Obs.Json.t

(** [entry_of_json j] — the inverse of {!entry_to_json}. Every member the
    encoder writes must be present and well-typed; the [Error] names the
    first one that is not (["corpus entry: missing field \"grid\""]). *)
val entry_of_json : Obs.Json.t -> (entry, string) result

type t

(** [create ?capacity ?per_shape ?path ()] — an empty corpus holding at
    most [capacity] (default 256) entries, the best [per_shape] (default
    4) per shape. With [path], the JSONL journal there is replayed first
    (torn or malformed lines skipped and counted in [stats]' [rejected])
    and then opened for appending;
    without it the corpus is memory-only. *)
val create : ?capacity:int -> ?per_shape:int -> ?path:string -> unit -> t

(** [add t e] — record a winner. Only an entry that carries new
    information is inserted, journaled and counted in [adds]; one already
    present (same shape, canon, cost and values) or immediately evicted as
    worse than the [per_shape] incumbents changes nothing. Thread-safe. *)
val add : t -> entry -> unit

(** [lookup t shape] — the entries for [shape], best cost first (possibly
    []). Thread-safe. *)
val lookup : t -> string -> entry list

(** Close the journal channel (after workers have drained). *)
val close : t -> unit

type stats = {
  entries : int;
  shapes : int;
  adds : int;  (** inserts that carried new information *)
  evictions : int;
  hits : int;  (** lookups that found at least one entry *)
  lookups : int;
  replayed : int;  (** journal lines replayed at startup *)
  rejected : int;  (** journal lines replay could not parse or decode *)
}

val stats : t -> stats

(** [shape_of_source src] — parse and shape-hash a problem source; [None]
    when it does not parse (such a submit fails at compile anyway). *)
val shape_of_source : string -> string option
