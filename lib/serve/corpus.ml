module Json = Obs.Json

(* The winner corpus: finished jobs' winning design vectors keyed by the
   problem's shape hash ({!Netlist.Canon.problem_shape_hash} — the canon
   rendering with spec target values dropped), so "same circuit, tweaked
   specs" finds its predecessors. Bounded in memory, journal-backed on
   disk (state_dir/corpus.log, JSONL, replayed on restart, compacted via
   tmp+rename like the job journal). Entries are plain data — values,
   grid indices, Hustin probabilities — and cross the wire as JSON. *)

type entry = {
  en_shape : string;
  en_canon : string;
  en_job : int;
  en_name : string;
  en_cost : float;
  en_values : float array;
  en_grid : int array;
  en_probs : float array;
}

let warm_label (e : entry) = Printf.sprintf "corpus:job%d:%s" e.en_job e.en_name

let warm_start_of_entry (e : entry) =
  {
    Core.Oblx.ws_label = warm_label e;
    ws_values = e.en_values;
    ws_grid = e.en_grid;
    ws_probs = (if e.en_probs = [||] then None else Some e.en_probs);
  }

(* ------------------------------------------------------------------ *)
(* JSON codec — the journal line and the wire form are the same object  *)
(* ------------------------------------------------------------------ *)

let farr a = Json.Arr (Array.to_list a |> List.map (fun v -> Json.Num v))
let iarr a = Json.Arr (Array.to_list a |> List.map (fun v -> Json.Num (float_of_int v)))

let entry_to_json (e : entry) =
  Json.Obj
    [
      ("shape", Json.Str e.en_shape);
      ("canon", Json.Str e.en_canon);
      ("job", Json.Num (float_of_int e.en_job));
      ("name", Json.Str e.en_name);
      ("cost", Json.Num e.en_cost);
      ("values", farr e.en_values);
      ("grid", iarr e.en_grid);
      ("probs", farr e.en_probs);
    ]

(* Every member [entry_to_json] writes must be there with its type: a
   line that lacks one, or carries a mistyped one, is an error naming
   the member, never a defaulted field. *)
let entry_of_json j =
  let floats v = Array.of_list (List.map Json.to_float (Json.to_list v)) in
  let ints v = Array.of_list (List.map Json.to_int (Json.to_list v)) in
  match
    {
      en_shape = Json.field "shape" Json.to_str j;
      en_canon = Json.field "canon" Json.to_str j;
      en_job = Json.field "job" Json.to_int j;
      en_name = Json.field "name" Json.to_str j;
      en_cost = Json.field "cost" Json.to_float j;
      en_values = Json.field "values" floats j;
      en_grid = Json.field "grid" ints j;
      en_probs = Json.field "probs" floats j;
    }
  with
  | e when e.en_shape <> "" && e.en_values <> [||] -> Ok e
  | _ -> Error "corpus entry: empty shape or values"
  | exception Json.Decode_error m -> Error ("corpus entry: " ^ m)

(* ------------------------------------------------------------------ *)
(* The bounded, journal-backed store                                    *)
(* ------------------------------------------------------------------ *)

type t = {
  mutex : Mutex.t;
  table : (string, entry list) Hashtbl.t;  (** shape -> entries, best cost first *)
  per_shape : int;
  capacity : int;  (** total entries across all shapes *)
  mutable total : int;
  mutable log : out_channel option;
  log_path : string option;
  mutable logged_lines : int;  (** appended since the last compaction *)
  mutable adds : int;
  mutable evictions : int;
  mutable hits : int;  (** lookups that returned at least one entry *)
  mutable lookups : int;
  mutable replayed : int;
  mutable rejected : int;  (** journal lines replay could not parse or decode *)
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Two entries carry the same information when they agree on (shape,
   canon, cost, values); provenance (job id, name) may differ. Recording
   the same winner twice — a rerun at the same seed — is a no-op add. *)
let same (a : entry) (b : entry) =
  a.en_shape = b.en_shape && a.en_canon = b.en_canon && a.en_cost = b.en_cost
  && a.en_values = b.en_values

(* Caller holds the lock. Insert best-first; on cost ties the incumbent
   stays (earlier information wins, like the annealer's winner fold). *)
let insert_locked t (e : entry) =
  let bucket = Option.value (Hashtbl.find_opt t.table e.en_shape) ~default:[] in
  if List.exists (same e) bucket then false
  else begin
    let rec ins = function
      | [] -> [ e ]
      | x :: rest -> if e.en_cost < x.en_cost then e :: x :: rest else x :: ins rest
    in
    let bucket = ins bucket in
    let bucket, dropped =
      let rec take n = function
        | [] -> ([], 0)
        | _ :: rest when n = 0 -> ([], 1 + List.length rest)
        | x :: rest ->
            let kept, d = take (n - 1) rest in
            (x :: kept, d)
      in
      take t.per_shape bucket
    in
    (* The new entry may itself be what got truncated away. *)
    if List.exists (same e) bucket then begin
      Hashtbl.replace t.table e.en_shape bucket;
      t.total <- t.total + 1 - dropped;
      t.evictions <- t.evictions + dropped;
      (* Over total capacity: evict the globally worst-cost entry (ties:
         the lexicographically last shape). *)
      while t.total > t.capacity do
        let victim = ref None in
        Hashtbl.iter
          (fun shape es ->
            match List.rev es with
            | [] -> ()
            | worst :: _ -> begin
                match !victim with
                | Some (_, w, vs) when w > worst.en_cost || (w = worst.en_cost && vs >= shape) ->
                    ()
                | Some _ | None -> victim := Some (worst, worst.en_cost, shape)
              end)
          t.table;
        match !victim with
        | None -> t.total <- 0 (* unreachable: total > 0 *)
        | Some (worst, _, shape) ->
            let es = Hashtbl.find t.table shape in
            let es = List.filter (fun x -> not (same x worst)) es in
            if es = [] then Hashtbl.remove t.table shape else Hashtbl.replace t.table shape es;
            t.total <- t.total - 1;
            t.evictions <- t.evictions + 1
      done;
      true
    end
    else begin
      t.evictions <- t.evictions + 1;
      false
    end
  end

let append_locked t (e : entry) =
  match t.log with
  | None -> ()
  | Some oc -> (
      try
        output_string oc (Json.to_string (entry_to_json e));
        output_char oc '\n';
        flush oc;
        t.logged_lines <- t.logged_lines + 1
      with Sys_error _ -> () (* best-effort, like the job journal *))

(* Rewrite the journal as exactly the live entries, atomically. A kill -9
   at any point leaves either the old complete log or the new one. Caller
   holds the lock. *)
let compact_locked t =
  match (t.log_path, t.log) with
  | Some path, Some oc -> begin
      let tmp = path ^ ".tmp" in
      match open_out tmp with
      | exception Sys_error _ -> ()
      | tmp_oc -> (
          try
            Hashtbl.fold (fun shape es acc -> (shape, es) :: acc) t.table []
            |> List.sort (fun (a, _) (b, _) -> String.compare a b)
            |> List.iter (fun (_, es) ->
                   List.iter
                     (fun e ->
                       output_string tmp_oc (Json.to_string (entry_to_json e));
                       output_char tmp_oc '\n')
                     es);
            close_out tmp_oc;
            Sys.rename tmp path;
            (try close_out oc with Sys_error _ -> ());
            t.log <-
              (try Some (open_out_gen [ Open_append; Open_creat ] 0o644 path)
               with Sys_error _ -> None);
            t.logged_lines <- t.total
          with Sys_error _ -> ( try close_out tmp_oc with Sys_error _ -> ()))
    end
  | _ -> ()

let add t (e : entry) =
  locked t (fun () ->
      if insert_locked t e then begin
        t.adds <- t.adds + 1;
        append_locked t e;
        (* The journal accumulates superseded entries (evicted or
           deduplicated); compact once it clearly outgrows the live set. *)
        if t.logged_lines > (4 * t.total) + 64 then compact_locked t
      end)

let lookup t shape =
  locked t (fun () ->
      t.lookups <- t.lookups + 1;
      let es = Option.value (Hashtbl.find_opt t.table shape) ~default:[] in
      if es <> [] then t.hits <- t.hits + 1;
      es)

let create ?(capacity = 256) ?(per_shape = 4) ?path () =
  if capacity < 1 then invalid_arg "Corpus.create: capacity must be >= 1";
  if per_shape < 1 then invalid_arg "Corpus.create: per_shape must be >= 1";
  let t =
    {
      mutex = Mutex.create ();
      table = Hashtbl.create 64;
      per_shape;
      capacity;
      total = 0;
      log = None;
      log_path = path;
      logged_lines = 0;
      adds = 0;
      evictions = 0;
      hits = 0;
      lookups = 0;
      replayed = 0;
      rejected = 0;
    }
  in
  match path with
  | None -> t
  | Some p ->
      (* Replay the journal (later lines supersede nothing — [add]'s
         insert rule is order-independent up to ties, and duplicates are
         no-ops), then open it for appending. A line that does not parse
         or decode — a torn final line from a crash mid-append among
         them — is counted in [rejected] and skipped. *)
      let replayed = ref 0 in
      (match open_in p with
      | exception Sys_error _ -> ()
      | ic ->
          (try
             while true do
               match Result.bind (Json.of_string (input_line ic)) entry_of_json with
               | Error _ -> t.rejected <- t.rejected + 1
               | Ok e ->
                   incr replayed;
                   ignore (insert_locked t e)
             done
           with End_of_file -> ());
          close_in ic);
      t.log <-
        (try Some (open_out_gen [ Open_append; Open_creat ] 0o644 p) with Sys_error _ -> None);
      t.logged_lines <- !replayed;
      t.replayed <- !replayed;
      (* Startup compaction keeps a crash-looped daemon's journal bounded. *)
      locked t (fun () -> if t.logged_lines > (4 * t.total) + 64 then compact_locked t);
      t

let close t =
  locked t (fun () ->
      match t.log with
      | Some oc ->
          t.log <- None;
          (try close_out oc with Sys_error _ -> ())
      | None -> ())

type stats = {
  entries : int;
  shapes : int;
  adds : int;
  evictions : int;
  hits : int;
  lookups : int;
  replayed : int;
  rejected : int;
}

let stats t =
  locked t (fun () ->
      {
        entries = t.total;
        shapes = Hashtbl.length t.table;
        adds = t.adds;
        evictions = t.evictions;
        hits = t.hits;
        lookups = t.lookups;
        replayed = t.replayed;
        rejected = t.rejected;
      })

(* The corpus key of a problem source: parse and shape-hash. [None] when
   the source does not parse — an unparseable submit fails at compile
   anyway, and a corpus keyed by garbage would never be read back. *)
let shape_of_source src =
  match Netlist.Parser.parse_problem src with
  | ast -> Some (Netlist.Canon.problem_shape_hash ast)
  | exception Netlist.Parser.Error _ -> None
