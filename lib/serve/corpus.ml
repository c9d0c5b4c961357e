module Json = Obs.Json

(* The winner corpus: finished jobs' winning design vectors keyed by the
   problem's shape hash ({!Netlist.Canon.problem_shape_hash} — the canon
   rendering with spec target values dropped), so "same circuit, tweaked
   specs" finds its predecessors. An in-memory index derived from the
   pool's job journal: it has no file and no lock of its own. Entries are
   plain data — values, grid indices, Hustin probabilities — and cross
   the wire as JSON. *)

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
(* JSON codec — the wire form and a journaled warm seed alike           *)
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
(* The per-shape index                                                  *)
(* ------------------------------------------------------------------ *)

type t = {
  table : (string, entry list) Hashtbl.t;  (** shape -> entries, best first *)
  mutable adds : int;
  mutable evictions : int;
  mutable hits : int;  (** lookups that returned at least one entry *)
  mutable lookups : int;
}

let per_shape = 4
let create () = { table = Hashtbl.create 64; adds = 0; evictions = 0; hits = 0; lookups = 0 }

(* Two entries carry the same information when they agree on (shape,
   canon, cost, values); provenance (job id, name) may differ. Recording
   the same winner twice — a rerun at the same seed — keeps one entry. *)
let same (a : entry) (b : entry) =
  a.en_shape = b.en_shape && a.en_canon = b.en_canon && a.en_cost = b.en_cost
  && a.en_values = b.en_values

(* Best cost first, the lower job id on ties: a total order, so a bucket
   is the first [per_shape] distinct entries of everything added, in
   whatever order the jobs finished. Among [same] entries the lower job
   id ranks first and is the one kept. *)
let order (a : entry) (b : entry) =
  match Float.compare a.en_cost b.en_cost with 0 -> Int.compare a.en_job b.en_job | c -> c

let add t (e : entry) =
  let bucket = Option.value (Hashtbl.find_opt t.table e.en_shape) ~default:[] in
  if not (List.exists (fun x -> same e x && order x e <= 0) bucket) then begin
    let bucket = List.merge order [ e ] (List.filter (fun x -> not (same e x)) bucket) in
    let kept = List.filteri (fun i _ -> i < per_shape) bucket in
    Hashtbl.replace t.table e.en_shape kept;
    t.evictions <- t.evictions + List.length bucket - List.length kept;
    if List.memq e kept then t.adds <- t.adds + 1
  end

let lookup t shape =
  t.lookups <- t.lookups + 1;
  let es = Option.value (Hashtbl.find_opt t.table shape) ~default:[] in
  if es <> [] then t.hits <- t.hits + 1;
  es

type stats = { entries : int; shapes : int; adds : int; evictions : int; hits : int; lookups : int }

let stats t =
  {
    entries = Hashtbl.fold (fun _ es n -> n + List.length es) t.table 0;
    shapes = Hashtbl.length t.table;
    adds = t.adds;
    evictions = t.evictions;
    hits = t.hits;
    lookups = t.lookups;
  }

(* The corpus key of a problem source: parse and shape-hash. [None] when
   the source does not parse — an unparseable submit fails at compile
   anyway, and a corpus keyed by garbage would never be read back. *)
let shape_of_source src =
  match Netlist.Parser.parse_problem src with
  | ast -> Some (Netlist.Canon.problem_shape_hash ast)
  | exception Netlist.Parser.Error _ -> None
