module Json = Obs.Json

(* ------------------------------------------------------------------ *)
(* Configuration and state                                             *)
(* ------------------------------------------------------------------ *)

type config = {
  peers : string list;
  auth : string option;
  steal_timeout_s : float;
  rpc_timeout_s : float;
  directory_capacity : int;
}

let default_config =
  { peers = []; auth = None; steal_timeout_s = 60.0; rpc_timeout_s = 5.0; directory_capacity = 1024 }

type t = {
  mutex : Mutex.t;
  mutable peers : string list;
  auth : string option;
  steal_timeout_s : float;
  rpc_timeout_s : float;
  (* The replica directory: canon hash -> compile verdict learned from the
     fleet ([None] = compiled fine somewhere, [Some msg] = failed there).
     Compiled problems hold closures and never cross the wire, so this is
     metadata only — a known-good hash still compiles locally (once), a
     known-bad hash fails fast without compiling at all. FIFO-bounded. *)
  directory : (string, string option) Hashtbl.t;
  dir_order : string Queue.t;
  directory_capacity : int;
  mutable remote_hits : int;  (** local misses answered by directory or a peer *)
  mutable remote_lookups : int;  (** outbound cache_lookup RPCs *)
  mutable pushes : int;
  mutable push_failures : int;
  mutable inbound_pushes : int;  (** cache_push verbs served *)
  mutable served_lookups : int;  (** cache_lookup verbs served *)
  mutable scatters : int;
  mutable remote_shards : int;  (** shards a peer completed for us *)
  mutable steals : int;  (** shards re-run locally after a peer failed *)
  mutable corpus_pushes : int;  (** winner entries accepted by peers *)
  mutable corpus_push_failures : int;
  mutable corpus_inbound : int;  (** corpus_push verbs served *)
  mutable corpus_served_lookups : int;  (** corpus_lookup verbs served *)
}

let create (cfg : config) =
  if cfg.steal_timeout_s <= 0.0 then invalid_arg "Fleet.create: steal_timeout_s must be > 0";
  if cfg.directory_capacity < 1 then invalid_arg "Fleet.create: directory_capacity must be >= 1";
  {
    mutex = Mutex.create ();
    peers = cfg.peers;
    auth = cfg.auth;
    steal_timeout_s = cfg.steal_timeout_s;
    rpc_timeout_s = cfg.rpc_timeout_s;
    directory = Hashtbl.create 64;
    dir_order = Queue.create ();
    directory_capacity = cfg.directory_capacity;
    remote_hits = 0;
    remote_lookups = 0;
    pushes = 0;
    push_failures = 0;
    inbound_pushes = 0;
    served_lookups = 0;
    scatters = 0;
    remote_shards = 0;
    steals = 0;
    corpus_pushes = 0;
    corpus_push_failures = 0;
    corpus_inbound = 0;
    corpus_served_lookups = 0;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let peers t = locked t (fun () -> t.peers)
let set_peers t peers = locked t (fun () -> t.peers <- peers)
let auth t = t.auth

(* ------------------------------------------------------------------ *)
(* Replicated compile-cache directory                                  *)
(* ------------------------------------------------------------------ *)

(* Caller holds the lock. *)
let note_locked t ~hash ~error =
  if Hashtbl.mem t.directory hash then Hashtbl.replace t.directory hash error
  else begin
    if Queue.length t.dir_order >= t.directory_capacity then begin
      let victim = Queue.pop t.dir_order in
      Hashtbl.remove t.directory victim
    end;
    Queue.push hash t.dir_order;
    Hashtbl.add t.directory hash error
  end

let record_push t ~hash ~error =
  locked t (fun () ->
      t.inbound_pushes <- t.inbound_pushes + 1;
      note_locked t ~hash ~error)

let record_served_lookup t = locked t (fun () -> t.served_lookups <- t.served_lookups + 1)

let verdict_of = function None -> Ok () | Some e -> Error e

(* On a local cache miss: the directory first (free), then each peer in
   order (one bounded RPC each). A learned verdict lands in the directory
   so the next miss on this hash asks no one. *)
let lookup_remote t ~hash =
  let dir = locked t (fun () -> Hashtbl.find_opt t.directory hash) in
  match dir with
  | Some verdict ->
      locked t (fun () -> t.remote_hits <- t.remote_hits + 1);
      Some (verdict_of verdict)
  | None -> begin
      let rec ask = function
        | [] -> None
        | peer :: rest -> begin
            locked t (fun () -> t.remote_lookups <- t.remote_lookups + 1);
            match
              Client.cache_lookup ~socket:peer ?auth:t.auth ~timeout_s:t.rpc_timeout_s hash
            with
            | Ok (Some verdict) ->
                locked t (fun () ->
                    t.remote_hits <- t.remote_hits + 1;
                    note_locked t ~hash
                      ~error:(match verdict with Ok () -> None | Error e -> Some e));
                Some verdict
            | Ok None | Error _ -> ask rest
          end
      in
      ask (peers t)
    end

let record_corpus_inbound t = locked t (fun () -> t.corpus_inbound <- t.corpus_inbound + 1)

let record_served_corpus_lookup t =
  locked t (fun () -> t.corpus_served_lookups <- t.corpus_served_lookups + 1)

(* Winner replication, same best-effort contract as verdict [push]: a dead
   peer costs one timed-out RPC and a counter. Only entries that carried
   new information locally are pushed (the pool checks), and receivers do
   not re-propagate — each daemon tells every peer directly, so that is
   enough for a full mesh without echo. *)
let corpus_push t ~entry =
  List.iter
    (fun peer ->
      match Client.corpus_push ~socket:peer ?auth:t.auth ~timeout_s:t.rpc_timeout_s entry with
      | Ok () -> locked t (fun () -> t.corpus_pushes <- t.corpus_pushes + 1)
      | Error _ -> locked t (fun () -> t.corpus_push_failures <- t.corpus_push_failures + 1))
    (peers t)

(* Best-effort: a dead peer costs one timed-out RPC and a counter, never a
   failed job. *)
let push t ~hash ~error =
  List.iter
    (fun peer ->
      match
        Client.cache_push ~socket:peer ?auth:t.auth ~timeout_s:t.rpc_timeout_s
          { Proto.cp_hash = hash; cp_error = error }
      with
      | Ok () -> locked t (fun () -> t.pushes <- t.pushes + 1)
      | Error _ -> locked t (fun () -> t.push_failures <- t.push_failures + 1))
    (peers t)

(* ------------------------------------------------------------------ *)
(* Scatter / steal / merge                                             *)
(* ------------------------------------------------------------------ *)

type shard_result = {
  sr_lo : int;
  sr_hi : int;
  sr_peer : string option;
  sr_stolen : bool;
  sr_outcome : Proto.outcome;
}

(* Contiguous ascending shards covering [0, runs); the first [runs mod
   parts] shards take the remainder. Never more shards than runs. *)
let split_shards ~runs ~parts =
  let parts = Int.max 1 (Int.min parts runs) in
  let base = runs / parts and rem = runs mod parts in
  let rec go i lo acc =
    if i >= parts then List.rev acc
    else begin
      let len = base + if i < rem then 1 else 0 in
      go (i + 1) (lo + len) ((lo, lo + len) :: acc)
    end
  in
  go 0 0 []

let run_remote t ~submit ~peer ~lo ~hi =
  let sub =
    {
      submit with
      Proto.sb_shard = Some (lo, hi);
      (* Shard jobs keep their own rings off: the coordinator's record is
         the job of record; a shard's trace would only tell a shard story. *)
      sb_trace = false;
      sb_name =
        (let base = submit.Proto.sb_name in
         Printf.sprintf "%s#shard[%d,%d)" (if base = "" then "job" else base) lo hi);
    }
  in
  match Client.submit ~socket:peer ?auth:t.auth ~timeout_s:t.rpc_timeout_s sub with
  | Error e -> Error e
  | Ok id -> begin
      (* The peer's finished shard record, through the outcome codec. The
         floats made the round trip through %.17g JSON, so the winner's
         score is the exact bits the peer computed — the merge below stays
         bit-identical to a local fold. Anything other than a clean "done"
         record with a winner is a steal trigger, not a partial answer. *)
      match
        Client.wait ~socket:peer ?auth:t.auth ~poll_s:0.05 ~timeout_s:t.steal_timeout_s id
      with
      | Error e -> Error e
      | Ok job -> begin
          match (Json.mem_opt "state" job, Proto.outcome_of_json job) with
          | ( Some (Json.Str "done"),
              Ok ({ Proto.jo_winner_score = Some _; jo_winner_restart = Some _; _ } as o) ) ->
              Ok { sr_lo = lo; sr_hi = hi; sr_peer = Some peer; sr_stolen = false; sr_outcome = o }
          | Some (Json.Str "done"), Ok _ ->
              Error (Printf.sprintf "peer %s: shard record lacks winner fields" peer)
          | Some (Json.Str "done"), Error e -> Error (Printf.sprintf "peer %s: %s" peer e)
          | Some (Json.Str state), _ -> Error (Printf.sprintf "peer %s: shard finished %s" peer state)
          | _ -> Error (Printf.sprintf "peer %s: shard record lacks state" peer)
        end
    end

(* Scatter [submit]'s restart budget over self + peers, steal failed or
   slow shards back (re-running them locally through [run_local]), and
   return every shard's result in ascending [sr_lo] order. Because restart
   [k] of a shard is restart [k] of the unsharded run (Oblx's [restarts]
   contract) and each shard reports its winner's {!Oblx.score}, a
   left-biased strict-< fold over this list in order reproduces the
   winner one big box would pick, byte for byte — wherever each shard
   actually ran, steals included. *)
let scatter t ~(submit : Proto.submit) ~run_local =
  let ps = peers t in
  locked t (fun () -> t.scatters <- t.scatters + 1);
  let shards = split_shards ~runs:submit.Proto.sb_runs ~parts:(1 + List.length ps) in
  match shards with
  | [] -> Error "no shards" (* unreachable: runs >= 1 *)
  | own :: remote ->
      let remote =
        List.mapi (fun i (lo, hi) -> (i + 1, List.nth ps i, lo, hi)) remote
      in
      let n = 1 + List.length remote in
      let results = Array.make n (Error "shard never ran") in
      let local ~stolen (lo, hi) =
        Result.map
          (fun o -> { sr_lo = lo; sr_hi = hi; sr_peer = None; sr_stolen = stolen; sr_outcome = o })
          (run_local ~lo ~hi)
      in
      let steal ~lo ~hi reason =
        locked t (fun () -> t.steals <- t.steals + 1);
        Result.map_error
          (Printf.sprintf "shard [%d,%d): peer failed (%s), steal failed (%s)" lo hi reason)
          (local ~stolen:true (lo, hi))
      in
      let threads =
        List.map
          (fun (idx, peer, lo, hi) ->
            Thread.create
              (fun () ->
                results.(idx) <-
                  (match run_remote t ~submit ~peer ~lo ~hi with
                  | Ok sr ->
                      locked t (fun () -> t.remote_shards <- t.remote_shards + 1);
                      Ok sr
                  | Error reason -> steal ~lo ~hi reason))
              ())
          remote
      in
      results.(0) <- local ~stolen:false own;
      List.iter Thread.join threads;
      let rec collect i acc =
        if i < 0 then Ok acc
        else begin
          match results.(i) with
          | Ok sr -> collect (i - 1) (sr :: acc)
          | Error e -> Error e
        end
      in
      (* Slot order is shard order is ascending lo. *)
      collect (n - 1) []

(* The winner rule of [Oblx.best_of], lifted to shards: strict < keeps the
   earliest shard on ties, and within a shard the daemon that ran it
   already kept the earliest restart. The fleet's outcome is the winning
   shard's, with the work of every shard counted and the first cut reason
   reported when the winner ran to completion. *)
let merge shards =
  (* Every shard outcome has a score: a local one by construction, a
     peer's is checked on decode. *)
  let score sr = Option.value sr.sr_outcome.Proto.jo_winner_score ~default:Float.nan in
  match shards with
  | [] -> None
  | first :: rest ->
      let w =
        (List.fold_left (fun best sr -> if score sr < score best then sr else best) first rest)
          .sr_outcome
      in
      let total f = List.fold_left (fun a sr -> a + f sr.sr_outcome) 0 shards in
      Some
        {
          w with
          Proto.jo_moves = total (fun o -> o.Proto.jo_moves);
          jo_evals = total (fun o -> o.Proto.jo_evals);
          jo_cut_reason =
            (match w.Proto.jo_cut_reason with
            | Some r -> Some r
            | None -> List.find_map (fun sr -> sr.sr_outcome.Proto.jo_cut_reason) shards);
        }

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let num_i i = Json.Num (float_of_int i)

let stats_json t =
  locked t (fun () ->
      Json.Obj
        [
          ("peers", Json.Arr (List.map (fun p -> Json.Str p) t.peers));
          ("remote_hits", num_i t.remote_hits);
          ("remote_lookups", num_i t.remote_lookups);
          ("pushes", num_i t.pushes);
          ("push_failures", num_i t.push_failures);
          ("inbound_pushes", num_i t.inbound_pushes);
          ("served_lookups", num_i t.served_lookups);
          ("directory_entries", num_i (Hashtbl.length t.directory));
          ("scatters", num_i t.scatters);
          ("remote_shards", num_i t.remote_shards);
          ("steals", num_i t.steals);
          ("corpus_pushes", num_i t.corpus_pushes);
          ("corpus_push_failures", num_i t.corpus_push_failures);
          ("corpus_inbound", num_i t.corpus_inbound);
          ("corpus_served_lookups", num_i t.corpus_served_lookups);
        ])

let remote_hits t = locked t (fun () -> t.remote_hits)
