(** The oblxd wire protocol and the codec of every serve record: JSONL
    over a Unix-domain socket or an authenticated TCP connection. Each
    request is one JSON object on one line; each response is one JSON
    object on one line, with ["ok"] telling success from failure. The
    payload encoding reuses the telemetry JSON of {!Obs.Json} — the same
    codec the trace files use, so one parser serves both.

    [Proto] owns the submit, outcome and sweep-row codecs. The wire's
    [submit]/[sweep] requests and [result] responses and the job log
    ([state_dir/jobs.log]) encode and decode those records through the
    one pair of functions here.

    Requests (fields beyond ["op"] shown with their defaults):
    {v
    {"op":"submit","source":S,"name":N,"seed":1,"moves":null,"runs":1,
     "priority":0,"deadline_s":null,"trace":false,
     "shard_lo":null,"shard_hi":null}
    {"op":"sweep",...submit fields...,
     "variants":[{"name":V,"corner":C|null,"specs":{"ugf":[good,bad]}}]}
    {"op":"status","id":I}
    {"op":"result","id":I}
    {"op":"cancel","id":I}
    {"op":"stats"}
    {"op":"shutdown"}
    {"op":"resynthesize","id":I,"specs":{"ugf":[good]|[good,bad]},
     "runs":null,"moves":null,"deadline_s":null,"trace":false}
    {"op":"corpus_lookup","shape":H}
    {"op":"ping"}
    v}
    See docs/SERVER.md for the full schema including responses. *)

(** One cell of a sweep grid: the same netlist re-judged under an
    optional device corner and/or overridden good/bad spec targets. *)
type variant = {
  vr_name : string;  (** label for the verdict-table row *)
  vr_corner : string option;
      (** device corner to compile under ([None] = nominal); folds into
          the compile-cache key, so distinct corners compile once each *)
  vr_specs : (string * float * float) list;
      (** per-spec (name, good, bad) target overrides — applied to the
          compiled problem without recompiling *)
}

type submit = {
  sb_name : string;  (** label for humans: file name or benchmark name *)
  sb_source : string;  (** the problem description text itself *)
  sb_seed : int;
  sb_moves : int option;  (** [None] = OBLX's per-problem default budget *)
  sb_runs : int;  (** independent restarts, run sequentially in the job *)
  sb_priority : int;  (** higher runs sooner; ties go to submission order *)
  sb_deadline_s : float option;
      (** wall-clock budget measured from submission (queue wait counts);
          on expiry the job aborts with [cut_reason = "deadline"] *)
  sb_trace : bool;  (** keep a bounded ring of stage events with the job *)
  sb_shard : (int * int) option;
      (** a [shard_lo]/[shard_hi] restart range. It decodes (both bounds
          or neither), so old [jobs.log] lines replay, but [Pool.submit]
          refuses any submit that carries one: a daemon runs every
          restart of its jobs. Kept only while a benchmark client still
          names the field. *)
  sb_sweep : variant list;
      (** non-empty marks a sweep job: one (jobs=1) synthesis per variant
          over a shared per-(canon, corner) compile, producing a verdict
          table. *)
  sb_warm : Corpus.entry list;
      (** the job's warm-start snapshot: restart [k < length sb_warm]
          seeds from entry [k]; the rest stay cold. Normally filled by
          the pool at submit time from its corpus, and journaled with the
          submit so a replay re-runs from the same seeds — the snapshot,
          not the live corpus, is the job's recorded input. *)
  sb_spec_overrides : (string * float * float) list;
      (** (name, good, bad) re-targets applied to the compiled problem
          without recompiling — how [resynthesize] tweaks specs while
          keeping the parent's compile-cache hit. *)
}

(** The resynthesize fast path: rerun finished job [rz_id] with tweaked
    spec targets, warm-started from its recorded winner, on a reduced
    schedule. Answered with the new job's id. *)
type resynth = {
  rz_id : int;
  rz_specs : (string * float * float option) list;
      (** (name, good, bad) re-targets; [bad = None] keeps the parent's
          effective bad target for that spec *)
  rz_runs : int option;  (** [None]: half the parent's restarts (min 1) *)
  rz_moves : int option;  (** [None]: half the parent's explicit budget *)
  rz_deadline_s : float option;
  rz_trace : bool;
}

type request =
  | Submit of submit
  | Sweep of submit  (** [sb_sweep] non-empty; rejected when empty *)
  | Resynthesize of resynth
  | Status of int
  | Result of int
  | Cancel of int
  | Stats
  | Shutdown
  | Corpus_lookup of string
      (** shape hash — answered with the daemon's corpus entries for it *)
  | Ping  (** liveness probe; answered [{"ok":true}] *)

(** {2 Job outcomes} *)

(** One row of a sweep job's verdict table: what one variant's synthesis
    produced. *)
type sweep_row = {
  sv_name : string;
  sv_corner : string option;
  sv_cache : Core.Compile_cache.outcome option;
      (** the compile-cache outcome for this variant's (canon, corner)
          key; [None] when it failed before a key existed *)
  sv_best_cost : float option;
  sv_ok : bool option;  (** every spec at/inside its good target *)
  sv_error : string option;
  sv_predicted : (string * float option) list;
  sv_moves : int;
  sv_evals : int;
  sv_cut_reason : string option;
}

(** What a finished synthesis leaves on the job record. *)
type outcome = {
  jo_best_cost : float;
  jo_moves : int;  (** across every restart of the job *)
  jo_evals : int;
  jo_cut_reason : string option;
  jo_predicted : (string * float option) list;
  jo_sizes : (string * float) list;
  jo_winner_restart : int option;  (** global restart index of the winner *)
  jo_winner_score : float option;  (** {!Core.Oblx.score} of the winner *)
  jo_sweep : sweep_row list;  (** non-empty only for sweep jobs *)
  jo_shape : string option;  (** the problem's shape hash, when it parsed *)
  jo_canon : string option;  (** the problem's canon hash, when it parsed *)
  jo_warm : string option;
      (** provenance of the winning restart's seed (a corpus label), or
          [None] when a cold restart won / no warm seeds were attached *)
  jo_winner : (float array * int array * float array) option;
      (** winner's (values, grid indices, Hustin probs) — recorded on the
          job: [resynthesize] warm-starts from it, and the pool rebuilds
          the winner corpus from the done jobs' winners *)
}

(** {2 Codecs}

    Each decoder returns [Error] naming the first missing or mistyped
    field it meets (nested as ["field \"sweep\": field \"moves\": ..."]);
    none raises. Floats print with 17 significant digits, so a finite
    float decodes to the bits it was encoded from. A non-finite one prints
    as [null]: [best_cost] and sizes read it back as [nan], the optional
    floats as [None]. *)

(** The submit/sweep request body without its ["op"]. Decoding fills an
    absent optional field with the default the protocol documents (see
    the request list above). *)
val submit_to_json : submit -> Obs.Json.t

val submit_of_json : Obs.Json.t -> (submit, string) result

(** The outcome's members in result-record order: ["cut_reason"] (which
    the status view shows too), then the detail block — ["best_cost"],
    ["moves"], ["evals"], ["winner_restart"], ["winner_score"],
    ["predicted"], ["sizes"], and when present ["shape"], ["canon"],
    ["warm"], the three ["winner_*"] arrays and the ["sweep"] rows. The
    decoder accepts any object holding those members, such as a whole
    result record. *)
val outcome_to_json : outcome -> Obs.Json.t

val outcome_of_json : Obs.Json.t -> (outcome, string) result
val sweep_row_to_json : sweep_row -> Obs.Json.t
val sweep_row_of_json : Obs.Json.t -> (sweep_row, string) result

(** A compile-cache outcome as the record's ["cache"] member:
    ["hit"], ["miss"] or [null]. *)
val cache_to_json : Core.Compile_cache.outcome option -> Obs.Json.t

(** The inverse of {!cache_to_json}; raises [Obs.Json.Decode_error] on
    anything else, for use with {!field}. *)
val cache_of_json : Obs.Json.t -> Core.Compile_cache.outcome option

(** {2 Strict field readers} *)

(** [field] is {!Obs.Json.field}: [conv] applied to member [k] of [j]. A
    missing member, or one [conv] rejects with [Obs.Json.Decode_error],
    raises [Obs.Json.Decode_error] naming [k]. *)
val field : string -> (Obs.Json.t -> 'a) -> Obs.Json.t -> 'a

(** [nullable k conv j] — like {!field} for a member written as [null]
    when its value is absent. *)
val nullable : string -> (Obs.Json.t -> 'a) -> Obs.Json.t -> 'a option

(** [get_ok r] — the value of [Ok], [Obs.Json.Decode_error] for [Error]. *)
val get_ok : ('a, string) result -> 'a

(** {2 Requests} *)

val request_to_json : request -> Obs.Json.t
val request_of_json : Obs.Json.t -> (request, string) result

(** [ok fields] is [{"ok":true, ...fields}]. *)
val ok : (string * Obs.Json.t) list -> Obs.Json.t

(** [err msg] is [{"ok":false,"error":msg}]. *)
val err : string -> Obs.Json.t

(** [response_error j] — [Some msg] when [j] is an error response (or is
    not a well-formed response at all), [None] when ["ok"] is true. *)
val response_error : Obs.Json.t -> string option

(** [busy_message cap] — the error a connection over the daemon's
    connection cap is answered with before its socket closes. *)
val busy_message : int -> string

(** {2 Line transport}

    Newline-delimited JSON over raw descriptors. Raw [Unix.read]/[write]
    rather than channels, so a socket-timeout expiry surfaces as
    [Unix.Unix_error (EAGAIN, _, _)] — letting callers tell an idle or
    wedged peer from a connection that never opened. *)

(** [write_line fd j] writes [j] and a newline, looping over partial
    writes. Unix errors (EPIPE, EAGAIN on send-timeout) propagate. *)
val write_line : Unix.file_descr -> Obs.Json.t -> unit

type line_reader

val line_reader : Unix.file_descr -> line_reader

(** [read_line r] — the next line (newline stripped), [None] at EOF. A
    final unterminated line is returned as is. Unix errors propagate. *)
val read_line : line_reader -> string option

(** {2 Authentication}

    A daemon configured with a shared secret requires [{"auth":TOKEN}] as
    the very first line of every connection. Success is silent — the
    client pipelines the auth line with its request and reads one response
    — while a wrong or missing token is answered with exactly one
    [ok:false] line ({!auth_failed_message}) before the server closes the
    connection. The auth deadline is the idle timeout: a connection that
    never authenticates is shed like one that went quiet. *)

val auth_to_json : string -> Obs.Json.t

(** [auth_of_json j] — the token of an [{"auth":TOKEN}] line, or [None]
    when [j] is not one. *)
val auth_of_json : Obs.Json.t -> string option

val auth_failed_message : string

(** Constant-time token comparison (for equal lengths — length is not
    treated as secret). *)
val token_equal : string -> string -> bool
