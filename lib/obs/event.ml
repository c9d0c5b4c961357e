type level = Off | Summary | Stage | Moves

let level_rank = function Off -> 0 | Summary -> 1 | Stage -> 2 | Moves -> 3
let level_leq a b = level_rank a <= level_rank b

let level_to_string = function
  | Off -> "off"
  | Summary -> "summary"
  | Stage -> "stage"
  | Moves -> "moves"

let level_of_string s =
  match String.lowercase_ascii s with
  | "off" -> Ok Off
  | "summary" -> Ok Summary
  | "stage" -> Ok Stage
  | "moves" -> Ok Moves
  | _ -> Error (Printf.sprintf "unknown trace level %S (off|summary|stage|moves)" s)

type decision = Accepted | Rejected | Inapplicable

(* Incremental-evaluator cache behaviour per move class (Eval.Incr). *)
type eval_class = {
  ec_name : string;
  ec_evals : int;
  ec_dirty : int;
  ec_op_hits : int;
  ec_op_misses : int;
  ec_rom_builds : int;
  ec_rom_reuses : int;
}

type evals_data = {
  full : int;
  incr : int;
  dirty_vars : int;
  op_hits : int;
  op_misses : int;
  rom_builds : int;
  rom_reuses : int;
  spec_evals : int;
  spec_reuses : int;
  resyncs : int;
  resync_mismatches : int;
  probes : int;
  probe_rom_builds : int;
  per_class : eval_class list;
}

type body =
  | Restart of { total_moves : int; classes : string array }
  | Move of {
      cls : int;
      class_name : string;
      decision : decision;
      delta_cost : float;
      cost : float;
      state : (float array * int array) option;
    }
  | Stage of { stage : int; current_cost : float; best_cost : float; probs : float array }
  | Weight_update of {
      w_perf : float;
      w_dev : float;
      w_dc : float;
      c_obj : float;
      c_perf : float;
      c_dev : float;
      c_dc : float;
    }
  | Evals of evals_data
  | Done of {
      best_cost : float;
      final_cost : float;
      accepted : int;
      stages : int;
      froze_early : bool;
      aborted : bool;
      abort_reason : string option;
    }

type t = {
  restart : int;
  moves : int;
  temperature : float;
  acceptance : float;
  body : body;
}

let level_of_body = function
  | Restart _ | Done _ -> Summary
  | Stage _ | Weight_update _ | Evals _ -> Stage
  | Move _ -> Moves

let kind t =
  match t.body with
  | Restart _ -> "restart"
  | Move _ -> "move"
  | Stage _ -> "stage"
  | Weight_update _ -> "weights"
  | Evals _ -> "evals"
  | Done _ -> "done"

(* ------------------------------------------------------------------ *)
(* JSON encoding — one flat object per event, dispatched on "ev"       *)
(* ------------------------------------------------------------------ *)

let decision_to_string = function Accepted -> "acc" | Rejected -> "rej" | Inapplicable -> "n/a"

let decision_of_string = function
  | "acc" -> Ok Accepted
  | "rej" -> Ok Rejected
  | "n/a" -> Ok Inapplicable
  | s -> Error (Printf.sprintf "unknown decision %S" s)

let num_array a = Json.Arr (Array.to_list a |> List.map (fun v -> Json.Num v))
let int_array a = Json.Arr (Array.to_list a |> List.map (fun v -> Json.Num (float_of_int v)))
let str_array a = Json.Arr (Array.to_list a |> List.map (fun s -> Json.Str s))

let to_json t =
  let body_fields =
    match t.body with
    | Restart { total_moves; classes } ->
        [
          ("ev", Json.Str "restart");
          ("total_moves", Json.Num (float_of_int total_moves));
          ("classes", str_array classes);
        ]
    | Move { cls; class_name; decision; delta_cost; cost; state } ->
        [
          ("ev", Json.Str "move");
          ("cls", Json.Num (float_of_int cls));
          ("class", Json.Str class_name);
          ("dec", Json.Str (decision_to_string decision));
          ("dcost", Json.Num delta_cost);
          ("cost", Json.Num cost);
        ]
        @ (match state with
          | None -> []
          | Some (values, grid) -> [ ("x", num_array values); ("g", int_array grid) ])
    | Stage { stage; current_cost; best_cost; probs } ->
        [
          ("ev", Json.Str "stage");
          ("stage", Json.Num (float_of_int stage));
          ("cost", Json.Num current_cost);
          ("best", Json.Num best_cost);
          ("probs", num_array probs);
        ]
    | Weight_update { w_perf; w_dev; w_dc; c_obj; c_perf; c_dev; c_dc } ->
        [
          ("ev", Json.Str "weights");
          ("w_perf", Json.Num w_perf);
          ("w_dev", Json.Num w_dev);
          ("w_dc", Json.Num w_dc);
          ("c_obj", Json.Num c_obj);
          ("c_perf", Json.Num c_perf);
          ("c_dev", Json.Num c_dev);
          ("c_dc", Json.Num c_dc);
        ]
    | Evals e ->
        [
          ("ev", Json.Str "evals");
          ("full", Json.Num (float_of_int e.full));
          ("incr", Json.Num (float_of_int e.incr));
          ("dirty", Json.Num (float_of_int e.dirty_vars));
          ("op_hits", Json.Num (float_of_int e.op_hits));
          ("op_misses", Json.Num (float_of_int e.op_misses));
          ("rom_builds", Json.Num (float_of_int e.rom_builds));
          ("rom_reuses", Json.Num (float_of_int e.rom_reuses));
          ("spec_evals", Json.Num (float_of_int e.spec_evals));
          ("spec_reuses", Json.Num (float_of_int e.spec_reuses));
          ("resyncs", Json.Num (float_of_int e.resyncs));
          ("mismatches", Json.Num (float_of_int e.resync_mismatches));
          ("probes", Json.Num (float_of_int e.probes));
          ("probe_rom_builds", Json.Num (float_of_int e.probe_rom_builds));
          ( "classes",
            Json.Arr
              (List.map
                 (fun c ->
                   Json.Obj
                     [
                       ("name", Json.Str c.ec_name);
                       ("evals", Json.Num (float_of_int c.ec_evals));
                       ("dirty", Json.Num (float_of_int c.ec_dirty));
                       ("op_hits", Json.Num (float_of_int c.ec_op_hits));
                       ("op_misses", Json.Num (float_of_int c.ec_op_misses));
                       ("rom_builds", Json.Num (float_of_int c.ec_rom_builds));
                       ("rom_reuses", Json.Num (float_of_int c.ec_rom_reuses));
                     ])
                 e.per_class) );
        ]
    | Done { best_cost; final_cost; accepted; stages; froze_early; aborted; abort_reason } ->
        [
          ("ev", Json.Str "done");
          ("best", Json.Num best_cost);
          ("final", Json.Num final_cost);
          ("accepted", Json.Num (float_of_int accepted));
          ("stages", Json.Num (float_of_int stages));
          ("froze", Json.Bool froze_early);
          ("aborted", Json.Bool aborted);
        ]
        @ (match abort_reason with None -> [] | Some r -> [ ("reason", Json.Str r) ])
  in
  Json.Obj
    ([
       ("r", Json.Num (float_of_int t.restart));
       ("m", Json.Num (float_of_int t.moves));
       ("temp", Json.Num t.temperature);
       ("accept", Json.Num t.acceptance);
     ]
    @ body_fields)

let int_or0 key j = match Json.mem_opt key j with Some v -> Json.to_int v | None -> 0

let of_json j =
  try
    let restart = Json.to_int (Json.mem "r" j) in
    let moves = Json.to_int (Json.mem "m" j) in
    let temperature = Json.to_float (Json.mem "temp" j) in
    let acceptance = Json.to_float (Json.mem "accept" j) in
    let float_arr key = Array.of_list (List.map Json.to_float (Json.to_list (Json.mem key j))) in
    let body =
      match Json.to_str (Json.mem "ev" j) with
      | "restart" ->
          Restart
            {
              total_moves = Json.to_int (Json.mem "total_moves" j);
              classes =
                Array.of_list (List.map Json.to_str (Json.to_list (Json.mem "classes" j)));
            }
      | "move" ->
          let decision =
            match decision_of_string (Json.to_str (Json.mem "dec" j)) with
            | Ok d -> d
            | Error e -> raise (Json.Decode_error e)
          in
          let state =
            match Json.mem_opt "x" j with
            | None -> None
            | Some _ ->
                let grid =
                  Array.of_list (List.map Json.to_int (Json.to_list (Json.mem "g" j)))
                in
                Some (float_arr "x", grid)
          in
          Move
            {
              cls = Json.to_int (Json.mem "cls" j);
              class_name = Json.to_str (Json.mem "class" j);
              decision;
              delta_cost = Json.to_float (Json.mem "dcost" j);
              cost = Json.to_float (Json.mem "cost" j);
              state;
            }
      | "stage" ->
          Stage
            {
              stage = Json.to_int (Json.mem "stage" j);
              current_cost = Json.to_float (Json.mem "cost" j);
              best_cost = Json.to_float (Json.mem "best" j);
              probs = float_arr "probs";
            }
      | "weights" ->
          Weight_update
            {
              w_perf = Json.to_float (Json.mem "w_perf" j);
              w_dev = Json.to_float (Json.mem "w_dev" j);
              w_dc = Json.to_float (Json.mem "w_dc" j);
              c_obj = Json.to_float (Json.mem "c_obj" j);
              c_perf = Json.to_float (Json.mem "c_perf" j);
              c_dev = Json.to_float (Json.mem "c_dev" j);
              c_dc = Json.to_float (Json.mem "c_dc" j);
            }
      | "evals" ->
          let cls cj =
            {
              ec_name = Json.to_str (Json.mem "name" cj);
              ec_evals = Json.to_int (Json.mem "evals" cj);
              ec_dirty = Json.to_int (Json.mem "dirty" cj);
              ec_op_hits = Json.to_int (Json.mem "op_hits" cj);
              ec_op_misses = Json.to_int (Json.mem "op_misses" cj);
              ec_rom_builds = Json.to_int (Json.mem "rom_builds" cj);
              ec_rom_reuses = Json.to_int (Json.mem "rom_reuses" cj);
            }
          in
          Evals
            {
              full = Json.to_int (Json.mem "full" j);
              incr = Json.to_int (Json.mem "incr" j);
              dirty_vars = Json.to_int (Json.mem "dirty" j);
              op_hits = Json.to_int (Json.mem "op_hits" j);
              op_misses = Json.to_int (Json.mem "op_misses" j);
              rom_builds = Json.to_int (Json.mem "rom_builds" j);
              rom_reuses = Json.to_int (Json.mem "rom_reuses" j);
              spec_evals = Json.to_int (Json.mem "spec_evals" j);
              spec_reuses = Json.to_int (Json.mem "spec_reuses" j);
              resyncs = Json.to_int (Json.mem "resyncs" j);
              resync_mismatches = Json.to_int (Json.mem "mismatches" j);
              (* Probe counters postdate the format: absent means a trace
                 recorded before batched screening existed, i.e. zero. *)
              probes = int_or0 "probes" j;
              probe_rom_builds = int_or0 "probe_rom_builds" j;
              per_class = List.map cls (Json.to_list (Json.mem "classes" j));
            }
      | "done" ->
          Done
            {
              best_cost = Json.to_float (Json.mem "best" j);
              final_cost = Json.to_float (Json.mem "final" j);
              accepted = Json.to_int (Json.mem "accepted" j);
              stages = Json.to_int (Json.mem "stages" j);
              froze_early = Json.to_bool (Json.mem "froze" j);
              aborted = Json.to_bool (Json.mem "aborted" j);
              abort_reason = Option.map Json.to_str (Json.mem_opt "reason" j);
            }
      | k -> raise (Json.Decode_error (Printf.sprintf "unknown event kind %S" k))
    in
    Ok { restart; moves; temperature; acceptance; body }
  with Json.Decode_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Tolerant comparison (golden-trace diffing)                          *)
(* ------------------------------------------------------------------ *)

let feq ~tol a b =
  (Float.is_nan a && Float.is_nan b)
  || Float.abs (a -. b) <= tol *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let arr_feq ~tol a b =
  Array.length a = Array.length b && Array.for_all2 (fun x y -> feq ~tol x y) a b

let diff ~tol a b =
  let err fmt = Printf.ksprintf Option.some fmt in
  if a.restart <> b.restart then err "restart %d vs %d" a.restart b.restart
  else if a.moves <> b.moves then err "moves %d vs %d" a.moves b.moves
  else if not (feq ~tol a.temperature b.temperature) then
    err "temperature %.17g vs %.17g" a.temperature b.temperature
  else if not (feq ~tol a.acceptance b.acceptance) then
    err "acceptance %.17g vs %.17g" a.acceptance b.acceptance
  else
    match (a.body, b.body) with
    | Restart x, Restart y ->
        if x.total_moves <> y.total_moves then err "total_moves differ"
        else if x.classes <> y.classes then err "classes differ"
        else None
    | Move x, Move y ->
        if x.cls <> y.cls || x.class_name <> y.class_name then err "move class differs"
        else if x.decision <> y.decision then err "decision differs"
        else if not (feq ~tol x.delta_cost y.delta_cost) then
          err "delta_cost %.17g vs %.17g" x.delta_cost y.delta_cost
        else if not (feq ~tol x.cost y.cost) then err "cost %.17g vs %.17g" x.cost y.cost
        else begin
          match (x.state, y.state) with
          | None, None -> None
          | Some (xv, xg), Some (yv, yg) ->
              if not (arr_feq ~tol xv yv) then err "state values differ"
              else if xg <> yg then err "grid indices differ"
              else None
          | Some _, None | None, Some _ -> err "state presence differs"
        end
    | Stage x, Stage y ->
        if x.stage <> y.stage then err "stage index differs"
        else if not (feq ~tol x.current_cost y.current_cost) then err "stage cost differs"
        else if not (feq ~tol x.best_cost y.best_cost) then err "stage best differs"
        else if not (arr_feq ~tol x.probs y.probs) then err "hustin probs differ"
        else None
    | Weight_update x, Weight_update y ->
        if
          not
            (feq ~tol x.w_perf y.w_perf && feq ~tol x.w_dev y.w_dev && feq ~tol x.w_dc y.w_dc
            && feq ~tol x.c_obj y.c_obj && feq ~tol x.c_perf y.c_perf
            && feq ~tol x.c_dev y.c_dev && feq ~tol x.c_dc y.c_dc)
        then err "weights differ"
        else None
    | Evals x, Evals y -> if x <> y then err "eval counters differ" else None
    | Done x, Done y ->
        if not (feq ~tol x.best_cost y.best_cost) then err "done best differs"
        else if not (feq ~tol x.final_cost y.final_cost) then err "done final differs"
        else if x.accepted <> y.accepted then err "accepted count differs"
        else if x.stages <> y.stages then err "stage count differs"
        else if x.froze_early <> y.froze_early || x.aborted <> y.aborted then
          err "termination flags differ"
        else if x.abort_reason <> y.abort_reason then err "abort reason differs"
        else None
    | (Restart _ | Move _ | Stage _ | Weight_update _ | Evals _ | Done _), _ ->
        err "event kind %s vs %s" (kind a) (kind b)
