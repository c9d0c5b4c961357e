module Json = Obs.Json

(* One cell of a sweep grid: the same netlist re-judged under an optional
   device corner and/or overridden good/bad spec targets. *)
type variant = {
  vr_name : string;
  vr_corner : string option;
  vr_specs : (string * float * float) list;  (* spec name, good, bad *)
}

type submit = {
  sb_name : string;
  sb_source : string;
  sb_seed : int;
  sb_moves : int option;
  sb_runs : int;
  sb_priority : int;
  sb_deadline_s : float option;
  sb_trace : bool;
  sb_shard : (int * int) option;
      (* a restart range no daemon runs: decoded so old journal lines
         replay, refused by [Pool.submit] *)
  sb_sweep : variant list;
      (* non-empty marks a sweep job: one synthesis per variant, sharing
         one compile per distinct (canon, corner) key *)
  sb_warm : Corpus.entry list;
      (* the job's warm-start snapshot: restart k < |sb_warm| seeds from
         entry k. Filled by the pool at submit time (from its corpus) and
         journaled with the submit, so a replayed job re-runs from the
         same seeds regardless of what the live corpus holds by then. *)
  sb_spec_overrides : (string * float * float) list;
      (* good/bad re-targets applied to the compiled problem without
         recompiling — the resynthesize fast path's spec tweak *)
}

(* The resynthesize fast path: rerun a finished job with tweaked spec
   targets, warm-started from its winner, on a reduced schedule. A spec's
   bad target is optional — omitted means "keep the parent's", which the
   pool resolves against the parent's source and overrides. *)
type resynth = {
  rz_id : int;
  rz_specs : (string * float * float option) list;
  rz_runs : int option;  (* None: half the parent's restarts *)
  rz_moves : int option;  (* None: half the parent's explicit budget *)
  rz_deadline_s : float option;
  rz_trace : bool;
}

type request =
  | Submit of submit
  | Sweep of submit  (** sb_sweep non-empty: per-variant verdict table *)
  | Resynthesize of resynth
  | Status of int
  | Result of int
  | Cancel of int
  | Stats
  | Shutdown
  | Corpus_lookup of string  (** shape hash *)
  | Ping

(* One row of a sweep job's verdict table: what one variant's synthesis
   produced. [sv_cache] is the compile-cache outcome for this variant's
   (canon, corner) key — the bench gate over "one compile per distinct
   key" reads these. *)
type sweep_row = {
  sv_name : string;
  sv_corner : string option;
  sv_cache : Core.Compile_cache.outcome option;  (** None: failed pre-key *)
  sv_best_cost : float option;
  sv_ok : bool option;  (** every spec at/inside its good target *)
  sv_error : string option;
  sv_predicted : (string * float option) list;
  sv_moves : int;
  sv_evals : int;
  sv_cut_reason : string option;
}

(* What a finished synthesis leaves on the job record. *)
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
  jo_warm : string option;
      (** provenance of the winning restart's seed (a corpus label), or
          [None] when a cold restart won / no warm seeds were attached *)
  jo_winner : (float array * int array * float array) option;
      (** winner's (values, grid indices, Hustin probs) — recorded on the
          job so [resynthesize] can warm-start from it even after the
          corpus evicted the entry *)
}

let num_i i = Json.Num (float_of_int i)
let opt f = function Some v -> f v | None -> Json.Null
let opt_num = opt (fun v -> Json.Num v)
let opt_str = opt (fun s -> Json.Str s)
let floats a = Json.Arr (Array.to_list a |> List.map (fun v -> Json.Num v))

(* ------------------------------------------------------------------ *)
(* Strict field readers                                                *)
(* ------------------------------------------------------------------ *)

(* Every decoder here reads through these, built on [Json.field]. *)
let located = Json.located
let field = Json.field

let or_null conv = function Json.Null -> None | v -> Some (conv v)

(* A member that is always written, as null when the value is absent. *)
let nullable k conv j = field k (or_null conv) j

(* A member that is left out when the value is absent. *)
let optional k conv j =
  if Option.is_none (Json.mem_opt k j) then None else Some (field k conv j)

(* A request member a client may leave out or send as null. *)
let maybe k conv j = Option.join (optional k (or_null conv) j)

let members conv = function
  | Json.Obj kvs -> List.map (fun (k, v) -> (k, located k conv v)) kvs
  | _ -> raise (Json.Decode_error "expected an object")

let list conv v = List.map conv (Json.to_list v)
let floats_of v = Array.of_list (list Json.to_float v)
let decode f j = match f j with v -> Ok v | exception Json.Decode_error e -> Error e
let get_ok = function Ok v -> v | Error e -> raise (Json.Decode_error e)

(* ------------------------------------------------------------------ *)
(* Submits: the wire's submit/sweep body and the job log's inputs       *)
(* ------------------------------------------------------------------ *)

(* Spec re-targets cross the wire in the sweep-variant shape:
   an object mapping spec name to [good, bad]. *)
let specs_to_json specs =
  Json.Obj
    (List.map (fun (n, good, bad) -> (n, Json.Arr [ Json.Num good; Json.Num bad ])) specs)

let specs_of_json v =
  members
    (function
      | Json.Arr [ good; bad ] -> (Json.to_float good, Json.to_float bad)
      | _ -> raise (Json.Decode_error "spec override must be [good, bad]"))
    v
  |> List.map (fun (n, (good, bad)) -> (n, good, bad))

let variant_to_json (v : variant) =
  Json.Obj
    [
      ("name", Json.Str v.vr_name);
      ("corner", opt_str v.vr_corner);
      ("specs", specs_to_json v.vr_specs);
    ]

let variant_of_json j =
  {
    vr_name = field "name" Json.to_str j;
    vr_corner = maybe "corner" Json.to_str j;
    vr_specs = Option.value (maybe "specs" specs_of_json j) ~default:[];
  }

let submit_fields (s : submit) =
  [
    ("name", Json.Str s.sb_name);
    ("source", Json.Str s.sb_source);
    ("seed", num_i s.sb_seed);
    ("moves", opt num_i s.sb_moves);
    ("runs", num_i s.sb_runs);
    ("priority", num_i s.sb_priority);
    ("deadline_s", opt_num s.sb_deadline_s);
    ("trace", Json.Bool s.sb_trace);
    ("shard_lo", opt (fun (lo, _) -> num_i lo) s.sb_shard);
    ("shard_hi", opt (fun (_, hi) -> num_i hi) s.sb_shard);
  ]
  @ (match s.sb_sweep with
    | [] -> []
    | vs -> [ ("variants", Json.Arr (List.map variant_to_json vs)) ])
  @ (match s.sb_warm with
    | [] -> []
    | es -> [ ("warm", Json.Arr (List.map Corpus.entry_to_json es)) ])
  @
  match s.sb_spec_overrides with
  | [] -> []
  | specs -> [ ("spec_overrides", specs_to_json specs) ]

let submit_to_json s = Json.Obj (submit_fields s)

(* Lenient on optional fields (absent = the default the protocol
   documents) and strict on shape: a wrong type is a decode error. *)
let submit_of_json_exn j =
  let shard =
    (* Both bounds or neither: a half-specified shard is a caller bug,
       not something to guess a default for. *)
    match (maybe "shard_lo" Json.to_int j, maybe "shard_hi" Json.to_int j) with
    | Some lo, Some hi -> Some (lo, hi)
    | None, None -> None
    | Some _, None | None, Some _ ->
        raise (Json.Decode_error "shard_lo and shard_hi must come together")
  in
  let listed k conv = Option.value (maybe k (list conv) j) ~default:[] in
  {
    sb_name = Option.value (optional "name" Json.to_str j) ~default:"";
    sb_source = field "source" Json.to_str j;
    sb_seed = Option.value (maybe "seed" Json.to_int j) ~default:1;
    sb_moves = maybe "moves" Json.to_int j;
    sb_runs = Option.value (maybe "runs" Json.to_int j) ~default:1;
    sb_priority = Option.value (maybe "priority" Json.to_int j) ~default:0;
    sb_deadline_s = maybe "deadline_s" Json.to_float j;
    sb_trace = Option.value (optional "trace" Json.to_bool j) ~default:false;
    sb_shard = shard;
    sb_sweep = listed "variants" variant_of_json;
    sb_warm = listed "warm" (fun e -> get_ok (Corpus.entry_of_json e));
    sb_spec_overrides = Option.value (maybe "spec_overrides" specs_of_json j) ~default:[];
  }

let submit_of_json j = decode submit_of_json_exn j

(* ------------------------------------------------------------------ *)
(* Outcomes: the result record's detail and the job log's finish record *)
(* ------------------------------------------------------------------ *)

let cache_to_json = function
  | Some Core.Compile_cache.Hit -> Json.Str "hit"
  | Some Core.Compile_cache.Miss -> Json.Str "miss"
  | None -> Json.Null

let cache_of_json = function
  | Json.Str "hit" -> Some Core.Compile_cache.Hit
  | Json.Str "miss" -> Some Core.Compile_cache.Miss
  | Json.Null -> None
  | _ -> raise (Json.Decode_error "expected \"hit\", \"miss\" or null")

let predicted_to_json kvs = Json.Obj (List.map (fun (k, v) -> (k, opt_num v)) kvs)

let sweep_row_to_json (r : sweep_row) =
  Json.Obj
    [
      ("variant", Json.Str r.sv_name);
      ("corner", opt_str r.sv_corner);
      ("cache", cache_to_json r.sv_cache);
      ("best_cost", opt_num r.sv_best_cost);
      ("ok", opt (fun b -> Json.Bool b) r.sv_ok);
      ("error", opt_str r.sv_error);
      ("predicted", predicted_to_json r.sv_predicted);
      ("moves", num_i r.sv_moves);
      ("evals", num_i r.sv_evals);
      ("cut_reason", opt_str r.sv_cut_reason);
    ]

let sweep_row_of_json_exn j =
  {
    sv_name = field "variant" Json.to_str j;
    sv_corner = nullable "corner" Json.to_str j;
    sv_cache = field "cache" cache_of_json j;
    sv_best_cost = nullable "best_cost" Json.to_float j;
    sv_ok = nullable "ok" Json.to_bool j;
    sv_error = nullable "error" Json.to_str j;
    sv_predicted = field "predicted" (members (or_null Json.to_float)) j;
    sv_moves = field "moves" Json.to_int j;
    sv_evals = field "evals" Json.to_int j;
    sv_cut_reason = nullable "cut_reason" Json.to_str j;
  }

let sweep_row_of_json j = decode sweep_row_of_json_exn j

(* The cut reason leads: the status view shows it too. The rest is the
   result view's detail block. *)
let outcome_to_json (o : outcome) =
  Json.Obj
    ([
       ("cut_reason", opt_str o.jo_cut_reason);
       ("best_cost", Json.Num o.jo_best_cost);
       ("moves", num_i o.jo_moves);
       ("evals", num_i o.jo_evals);
       ("winner_restart", opt num_i o.jo_winner_restart);
       ("winner_score", opt_num o.jo_winner_score);
       ("predicted", predicted_to_json o.jo_predicted);
       ("sizes", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) o.jo_sizes));
     ]
    @ (match o.jo_shape with Some s -> [ ("shape", Json.Str s) ] | None -> [])
    @ (match o.jo_warm with Some w -> [ ("warm", Json.Str w) ] | None -> [])
    @ (match o.jo_winner with
      | None -> []
      | Some (values, grid, probs) ->
          [
            ("winner_values", floats values);
            ("winner_grid", floats (Array.map float_of_int grid));
            ("winner_probs", floats probs);
          ])
    @
    match o.jo_sweep with
    | [] -> []
    | rows -> [ ("sweep", Json.Arr (List.map sweep_row_to_json rows)) ])

let outcome_of_json_exn j =
  {
    jo_best_cost = field "best_cost" Json.to_float j;
    jo_moves = field "moves" Json.to_int j;
    jo_evals = field "evals" Json.to_int j;
    jo_cut_reason = nullable "cut_reason" Json.to_str j;
    jo_predicted = field "predicted" (members (or_null Json.to_float)) j;
    jo_sizes = field "sizes" (members Json.to_float) j;
    jo_winner_restart = nullable "winner_restart" Json.to_int j;
    jo_winner_score = nullable "winner_score" Json.to_float j;
    jo_sweep = Option.value (optional "sweep" (list sweep_row_of_json_exn) j) ~default:[];
    jo_shape = optional "shape" Json.to_str j;
    jo_warm = optional "warm" Json.to_str j;
    jo_winner =
      Option.map
        (fun values ->
          ( values,
            field "winner_grid" (fun v -> Array.of_list (list Json.to_int v)) j,
            field "winner_probs" floats_of j ))
        (optional "winner_values" floats_of j);
  }

let outcome_of_json j = decode outcome_of_json_exn j

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

let request_to_json = function
  | Submit s -> Json.Obj (("op", Json.Str "submit") :: submit_fields s)
  | Sweep s -> Json.Obj (("op", Json.Str "sweep") :: submit_fields s)
  | Resynthesize r ->
      Json.Obj
        ([
           ("op", Json.Str "resynthesize");
           ("id", num_i r.rz_id);
           ("runs", opt num_i r.rz_runs);
           ("moves", opt num_i r.rz_moves);
           ("deadline_s", opt_num r.rz_deadline_s);
           ("trace", Json.Bool r.rz_trace);
         ]
        @
        match r.rz_specs with
        | [] -> []
        | specs ->
            [
              ( "specs",
                Json.Obj
                  (List.map
                     (fun (n, good, bad) ->
                       ( n,
                         Json.Arr
                           (Json.Num good
                           :: (match bad with Some b -> [ Json.Num b ] | None -> [])) ))
                     specs) );
            ])
  | Status id -> Json.Obj [ ("op", Json.Str "status"); ("id", num_i id) ]
  | Result id -> Json.Obj [ ("op", Json.Str "result"); ("id", num_i id) ]
  | Cancel id -> Json.Obj [ ("op", Json.Str "cancel"); ("id", num_i id) ]
  | Stats -> Json.Obj [ ("op", Json.Str "stats") ]
  | Shutdown -> Json.Obj [ ("op", Json.Str "shutdown") ]
  | Corpus_lookup shape ->
      Json.Obj [ ("op", Json.Str "corpus_lookup"); ("shape", Json.Str shape) ]
  | Ping -> Json.Obj [ ("op", Json.Str "ping") ]

let retarget = function
  | Json.Arr [ good ] -> (Json.to_float good, None)
  | Json.Arr [ good; bad ] -> (Json.to_float good, Some (Json.to_float bad))
  | _ -> raise (Json.Decode_error "spec re-target must be [good] or [good, bad]")

(* Every decode error names the op it was decoding. *)
let request_of_json j =
  match field "op" Json.to_str j with
  | exception Json.Decode_error e -> Error e
  | op -> (
      let id () = field "id" Json.to_int j in
      let request = function
        | "submit" -> Some (Submit (submit_of_json_exn j))
        | "sweep" ->
            let s = submit_of_json_exn j in
            if s.sb_sweep = [] then raise (Json.Decode_error "at least one variant required");
            Some (Sweep s)
        | "resynthesize" ->
            Some
              (Resynthesize
                 {
                   rz_id = id ();
                   rz_specs =
                     Option.value (maybe "specs" (members retarget) j) ~default:[]
                     |> List.map (fun (n, (good, bad)) -> (n, good, bad));
                   rz_runs = maybe "runs" Json.to_int j;
                   rz_moves = maybe "moves" Json.to_int j;
                   rz_deadline_s = maybe "deadline_s" Json.to_float j;
                   rz_trace = Option.value (optional "trace" Json.to_bool j) ~default:false;
                 })
        | "status" -> Some (Status (id ()))
        | "result" -> Some (Result (id ()))
        | "cancel" -> Some (Cancel (id ()))
        | "stats" -> Some Stats
        | "shutdown" -> Some Shutdown
        | "corpus_lookup" -> Some (Corpus_lookup (field "shape" Json.to_str j))
        | "ping" -> Some Ping
        | _ -> None
      in
      match request op with
      | Some r -> Ok r
      | None -> Error (Printf.sprintf "unknown op %S" op)
      | exception Json.Decode_error e -> Error (op ^ ": " ^ e))

let ok fields = Json.Obj (("ok", Json.Bool true) :: fields)
let err msg = Json.Obj [ ("ok", Json.Bool false); ("error", Json.Str msg) ]

let busy_message cap =
  Printf.sprintf "daemon at connection capacity (%d) — retry shortly" cap

(* ------------------------------------------------------------------ *)
(* Line transport over raw descriptors                                 *)
(* ------------------------------------------------------------------ *)

(* Both ends speak newline-delimited JSON over a Unix fd. Raw [Unix.read]/
   [Unix.write] rather than channels, so an [SO_RCVTIMEO]/[SO_SNDTIMEO]
   expiry surfaces deterministically as [Unix_error (EAGAIN, _, _)] — the
   server turns it into an idle-timeout disconnect, the client into a
   "daemon did not respond" report instead of a misattributed connect
   failure. *)

let write_line fd j =
  let s = Json.to_string j ^ "\n" in
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

type line_reader = { lr_fd : Unix.file_descr; lr_buf : Buffer.t; lr_chunk : Bytes.t }

let line_reader fd = { lr_fd = fd; lr_buf = Buffer.create 512; lr_chunk = Bytes.create 4096 }

(* [read_line r] returns the next newline-terminated line (newline
   stripped), or [None] at EOF. A final unterminated line is returned as
   is. Unix errors (including EAGAIN on timeout) propagate to the caller. *)
let read_line r =
  let take_upto pos =
    let all = Buffer.contents r.lr_buf in
    let line = String.sub all 0 pos in
    Buffer.clear r.lr_buf;
    Buffer.add_substring r.lr_buf all (pos + 1) (String.length all - pos - 1);
    line
  in
  let rec go () =
    match String.index_opt (Buffer.contents r.lr_buf) '\n' with
    | Some pos -> Some (take_upto pos)
    | None -> begin
        match Unix.read r.lr_fd r.lr_chunk 0 (Bytes.length r.lr_chunk) with
        | 0 ->
            if Buffer.length r.lr_buf = 0 then None
            else begin
              let line = Buffer.contents r.lr_buf in
              Buffer.clear r.lr_buf;
              Some line
            end
        | n ->
            Buffer.add_subbytes r.lr_buf r.lr_chunk 0 n;
            go ()
      end
  in
  go ()

let response_error j =
  match Json.mem_opt "ok" j with
  | Some (Json.Bool true) -> None
  | Some (Json.Bool false) -> begin
      match Json.mem_opt "error" j with
      | Some (Json.Str e) -> Some e
      | Some _ | None -> Some "request failed"
    end
  | Some _ | None -> Some "malformed response (no \"ok\" field)"

(* ------------------------------------------------------------------ *)
(* Authentication                                                      *)
(* ------------------------------------------------------------------ *)

(* When a daemon listens on TCP it is configured with a shared secret, and
   the first line of every connection (on either listener) must be
   [{"auth":TOKEN}]. A correct token gets no response — the client
   pipelines the auth line and the request and reads one response line. A
   wrong or missing token gets exactly one [ok:false] line and a close. *)

let auth_to_json token = Json.Obj [ ("auth", Json.Str token) ]

let auth_of_json j =
  match Json.mem_opt "auth" j with Some (Json.Str t) -> Some t | Some _ | None -> None

let auth_failed_message = "authentication failed"

(* Constant-time comparison over equal lengths: the timing of a token
   check must not leak how long a matching prefix was. (Length itself is
   not secret.) *)
let token_equal a b =
  String.length a = String.length b
  && begin
       let acc = ref 0 in
       String.iteri (fun i c -> acc := !acc lor (Char.code c lxor Char.code b.[i])) a;
       !acc = 0
     end
