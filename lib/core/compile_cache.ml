type outcome = Hit | Miss

type entry = {
  value : (Problem.t, string) result;
  mutable last_used : int;  (** tick of the most recent hit (LRU order) *)
}

type t = {
  mutex : Mutex.t;
  table : (string, entry) Hashtbl.t;
  capacity : int;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = { hits : int; misses : int; entries : int; evictions : int; capacity : int }

let create ?(capacity = 64) () =
  if capacity < 1 then invalid_arg "Compile_cache.create: capacity must be >= 1";
  {
    mutex = Mutex.create ();
    table = Hashtbl.create 32;
    capacity;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let stats t =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        entries = Hashtbl.length t.table;
        evictions = t.evictions;
        capacity = t.capacity;
      })

(* A corner-skewed compile is a different artifact: the same canon hash
   with the corner name appended. The nominal corner keeps the bare hash,
   so it shares an entry with a corner-free compile. Corner names are
   assumed to identify their skews (the {!Devices.Registry.standard_corners}
   table); a caller inventing two different corners under one name would
   alias them. *)
let qualify_key ?corner hash =
  match corner with
  | Some c when c.Devices.Registry.corner_name <> "nominal" ->
      hash ^ "@" ^ c.Devices.Registry.corner_name
  | Some _ | None -> hash

let key_of_source ?corner src =
  match Netlist.Parser.parse_problem src with
  | ast -> Ok (qualify_key ?corner (Netlist.Canon.problem_hash ast))
  | exception Netlist.Parser.Error (ln, msg) ->
      Error (Printf.sprintf "astrx: parse error at line %d: %s" ln msg)

(* Caller holds the lock. Linear scan for the LRU victim: the capacity is
   tens of entries, and eviction is rarer than compilation. *)
let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun k e ->
      match !victim with
      | Some (_, age) when age <= e.last_used -> ()
      | Some _ | None -> victim := Some (k, e.last_used))
    t.table;
  match !victim with
  | Some (k, _) ->
      Hashtbl.remove t.table k;
      t.evictions <- t.evictions + 1
  | None -> ()

let find t ~key =
  locked t (fun () ->
      t.tick <- t.tick + 1;
      match Hashtbl.find_opt t.table key with
      | Some e ->
          e.last_used <- t.tick;
          t.hits <- t.hits + 1;
          Some e.value
      | None ->
          t.misses <- t.misses + 1;
          None)

let add t ~key value =
  locked t (fun () ->
      if not (Hashtbl.mem t.table key) then begin
        if Hashtbl.length t.table >= t.capacity then evict_lru t;
        Hashtbl.add t.table key { value; last_used = t.tick }
      end)

let compile t ?corner ~source () =
  match key_of_source ?corner source with
  | Error e -> Error (e, Miss) (* unparseable: no key, so never cached *)
  | Ok key -> begin
      match find t ~key with
      | Some (Ok p) -> Ok (p, Hit)
      | Some (Error e) -> Error (e, Hit)
      | None -> begin
          (* Compile outside the lock: a big problem takes real time and
             must not stall lookups (or other compiles) behind it. *)
          let value = Compile.compile_source ?corner source in
          add t ~key value;
          match value with Ok p -> Ok (p, Miss) | Error e -> Error (e, Miss)
        end
    end
