(** The synthesis fleet: what lets a daemon scale past one box.

    Three cooperating pieces, all riding the existing {!Proto} line
    protocol over {!Client} connections (Unix socket or authenticated
    TCP):

    {ul
    {- {b Scatter/steal/merge.} A daemon with registered peers that
       receives an ordinary multi-restart submit splits the restart
       budget [\[0, runs)] into contiguous shards — one per participant —
       and forwards each remote shard as a submit carrying
       [shard_lo]/[shard_hi] ({!Proto.submit.sb_shard}). Restart [k] of a
       shard anneals with the [k]-th RNG split stream of the same root
       seed ({!Core.Oblx.best_of}'s [restarts] contract), so the fleet
       performs exactly the restarts one big box would. A shard whose
       peer dies, answers garbage, or misses the steal deadline is
       {e stolen}: re-run locally over the same index range, producing
       the same bits. Merging folds per-shard winners in ascending shard
       order with strict [<] on the recorded {!Core.Oblx.score} — the
       exact winner rule [best_of] applies internally — so the fleet's
       answer is byte-for-byte the single-box answer.}
    {- {b Compile-cache replication.} Compiled problems hold closures and
       cannot cross the wire, so the fleet replicates compile {e
       verdicts}: on a local cache miss a daemon consults its directory
       of learned verdicts, then asks peers ([cache_lookup]); after
       compiling something new it pushes the verdict to peers
       best-effort ([cache_push]). A known-bad hash fails fast without
       recompiling; a known-good hash still compiles locally (once) but
       is counted as a remote hit.}
    {- {b Counters} for all of it in [stats_json], surfaced under
       ["fleet"] by the daemon's [stats] verb.}} *)

type t

type config = {
  peers : string list;  (** endpoint strings ({!Client.parse_endpoint}) *)
  auth : string option;  (** shared secret sent to peers *)
  steal_timeout_s : float;
      (** per-shard deadline: a peer that hasn't finished its shard by
          then is treated as dead and the shard is stolen *)
  rpc_timeout_s : float;  (** submit/lookup/push socket timeout *)
  directory_capacity : int;  (** replica-directory bound (FIFO eviction) *)
}

(** No peers, no auth, 60 s steal deadline, 5 s RPCs, 1024 directory
    entries. *)
val default_config : config

val create : config -> t

(** Peers can be rewired live — how tests and benches boot daemons on
    ephemeral ports first and introduce them afterwards, and how an
    operator drains a box (see docs/SERVER.md's runbook). *)
val peers : t -> string list

val set_peers : t -> string list -> unit
val auth : t -> string option

(** {2 Replicated compile-cache directory} *)

(** [lookup_remote t ~hash] — called on a local compile-cache miss:
    [Some (Ok ())] the fleet compiled this fine, [Some (Error msg)] the
    fleet knows it fails, [None] nobody knows. Directory first, then one
    RPC per peer until an answer; learned verdicts are remembered. *)
val lookup_remote : t -> hash:string -> (unit, string) result option

(** [push t ~hash ~error] — replicate a fresh local compile verdict to
    every peer, best-effort ([error = None] means it compiled). *)
val push : t -> hash:string -> error:string option -> unit

(** [record_push t ~hash ~error] — an inbound [cache_push] verb: note the
    verdict in the directory. *)
val record_push : t -> hash:string -> error:string option -> unit

(** Count an inbound [cache_lookup] verb (the answer comes from the local
    {!Core.Compile_cache}, not from here). *)
val record_served_lookup : t -> unit

(** {2 Winner-corpus replication}

    Same shape as verdict replication: finished winners travel to peers
    as [corpus_push] verbs, best-effort, and only when they carried new
    information locally — receivers absorb without re-propagating, which
    is loop-free on a full mesh. *)

(** [corpus_push t ~entry] — replicate a freshly recorded winner to every
    peer, best-effort. *)
val corpus_push : t -> entry:Corpus.entry -> unit

(** Count an inbound [corpus_push] verb (the entry lands in the pool's
    {!Corpus}, not here). *)
val record_corpus_inbound : t -> unit

(** Count an inbound [corpus_lookup] verb. *)
val record_served_corpus_lookup : t -> unit

(** {2 Scatter / steal / merge} *)

type shard_result = {
  sr_lo : int;
  sr_hi : int;  (** restart range [\[lo, hi)] this shard executed *)
  sr_peer : string option;  (** [None]: ran on this daemon *)
  sr_stolen : bool;  (** re-run locally after the peer failed *)
  sr_outcome : Proto.outcome;
      (** the shard's own outcome: its winner (global [jo_winner_restart],
          and always a [jo_winner_score]) and the moves and evals of its
          range. A peer's is decoded from its result record through
          {!Proto.outcome_of_json}. *)
}

(** [split_shards ~runs ~parts] — contiguous ascending ranges covering
    [\[0, runs)], at most [runs] of them; the first [runs mod parts]
    shards take the remainder. *)
val split_shards : runs:int -> parts:int -> (int * int) list

(** [scatter t ~submit ~run_local] — shard [submit]'s restart budget over
    this daemon + peers; shard 0 runs locally via [run_local] (the outcome
    of restarts [\[lo, hi)] on this daemon), the rest
    go to peers (each on its own thread, as a sharded submit that is never
    re-scattered). Any remote failure — refused submit, dead connection,
    non-[done] terminal state, or the steal deadline — steals the shard
    back through [run_local]. Returns every shard's result in ascending
    [sr_lo] order, or [Error] if a shard could not run even locally. *)
val scatter :
  t ->
  submit:Proto.submit ->
  run_local:(lo:int -> hi:int -> (Proto.outcome, string) result) ->
  (shard_result list, string) result

(** [merge shards] — the fleet's outcome: the winning shard's, found by a
    fold in list order with strict [<] on [jo_winner_score] that keeps the
    earliest shard on ties, with moves and evals summed over every shard
    and, when the winner ran to completion, the first shard's cut reason.
    Applied to {!scatter}'s output this reproduces {!Core.Oblx.best_of}'s
    winner bit-for-bit. [None] for no shards. *)
val merge : shard_result list -> Proto.outcome option

(** {2 Stats} *)

(** The ["fleet"] block of the daemon's [stats] response. *)
val stats_json : t -> Obs.Json.t

val remote_hits : t -> int
