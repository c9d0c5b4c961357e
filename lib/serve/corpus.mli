(** The winner corpus: each finished job's winning design vector, final
    cost, and end-of-run Hustin move-class distribution, keyed by the
    problem's {e shape} hash ({!Netlist.Canon.problem_shape_hash} — the
    canonical form with spec target values dropped), so a re-submission of
    the same circuit with tweaked specs finds its predecessors and the
    pool can seed a fraction of its annealing restarts from prior winners.

    The corpus is derived from the pool's job journal, not kept beside
    it: the pool adds a plain job's winner as the job finishes done, and
    at startup rebuilds the index from the jobs [jobs.log] replays as
    done. An index holds, per shape, the best four distinct winners,
    ordered by (cost, job id) — a function of the set of entries added,
    so a restarted daemon rebuilds exactly the corpus it had. It has no
    file and no lock: the pool's mutex serializes every call. Entries are
    plain data and cross the wire ([corpus_lookup], a submit's [warm]
    seeds) as the JSON object {!entry_to_json} writes.

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

(** [create ()] — an empty index. *)
val create : unit -> t

(** [add t e] — record a winner. Of entries that carry the same
    information (same shape, canon, cost and values) the one with the
    lower job id is kept; an entry that ranks below its shape's best four
    is dropped. [adds] counts the entries taken in, [evictions] those
    pushed out. *)
val add : t -> entry -> unit

(** [lookup t shape] — the entries for [shape], best first (possibly
    []). *)
val lookup : t -> string -> entry list

type stats = {
  entries : int;
  shapes : int;
  adds : int;  (** entries taken in since the index was created *)
  evictions : int;
  hits : int;  (** lookups that found at least one entry *)
  lookups : int;
}

val stats : t -> stats

(** [shape_of_source src] — parse and shape-hash a problem source; [None]
    when it does not parse (such a submit fails at compile anyway). *)
val shape_of_source : string -> string option
