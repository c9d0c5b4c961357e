(* Tests for the telemetry subsystem: JSON round-trips, sinks, trace-level
   filtering, the annealer's event stream, replay of recorded traces against
   the compiled cost function, and the committed golden trace. *)

let mk ?(restart = 0) ?(moves = 0) ?(temperature = 1.5) ?(acceptance = 0.5) body =
  { Obs.Event.restart; moves; temperature; acceptance; body }

let sample_events =
  [
    mk ~moves:0 (Obs.Event.Restart { total_moves = 100; classes = [| "a"; "b" |] });
    mk ~moves:1
      (Obs.Event.Move
         {
           cls = 1;
           class_name = "b";
           decision = Obs.Event.Accepted;
           delta_cost = -0.25;
           cost = 3.5;
           state = Some ([| 1.0; 2.5e-13; -0.0 |], [| 3; 0; 41 |]);
         });
    mk ~moves:2
      (Obs.Event.Move
         {
           cls = 0;
           class_name = "a";
           decision = Obs.Event.Rejected;
           delta_cost = 0.75;
           cost = 3.5;
           state = None;
         });
    mk ~moves:3 ~restart:2
      (Obs.Event.Move
         {
           cls = 0;
           class_name = "a";
           decision = Obs.Event.Inapplicable;
           delta_cost = 0.0;
           cost = 3.5;
           state = None;
         });
    mk ~moves:50
      (Obs.Event.Stage { stage = 1; current_cost = 1.25; best_cost = 1.0; probs = [| 0.3; 0.7 |] });
    mk ~moves:50
      (Obs.Event.Weight_update
         { w_perf = 2.0; w_dev = 1.0; w_dc = 4.0; c_obj = 0.5; c_perf = 0.1; c_dev = 0.0; c_dc = 0.2 });
    mk ~moves:50
      (Obs.Event.Evals
         {
           full = 2;
           incr = 48;
           dirty_vars = 61;
           op_hits = 400;
           op_misses = 44;
           rom_builds = 9;
           rom_reuses = 87;
           spec_evals = 120;
           spec_reuses = 360;
           resyncs = 1;
           resync_mismatches = 0;
           probes = 24;
           probe_rom_builds = 6;
           per_class =
             [
               {
                 Obs.Event.ec_name = "node-v";
                 ec_evals = 30;
                 ec_dirty = 30;
                 ec_op_hits = 300;
                 ec_op_misses = 12;
                 ec_rom_builds = 2;
                 ec_rom_reuses = 60;
               };
             ];
         });
    mk ~moves:100 ~restart:1
      (Obs.Event.Done
         {
           best_cost = 1.0;
           final_cost = 1.5;
           accepted = 42;
           stages = 5;
           froze_early = false;
           aborted = true;
           abort_reason = Some "deadline";
         });
    mk ~moves:100
      (Obs.Event.Done
         {
           best_cost = 0.5;
           final_cost = 0.5;
           accepted = 60;
           stages = 5;
           froze_early = true;
           aborted = false;
           abort_reason = None;
         });
  ]

(* --- JSON values --- *)

let test_json_scalars () =
  let rt v =
    let s = Obs.Json.to_string v in
    match Obs.Json.of_string s with
    | Ok v' -> v'
    | Error e -> Alcotest.failf "parse %S: %s" s e
  in
  List.iter
    (fun v -> Alcotest.(check bool) "round-trip" true (rt v = v))
    [
      Obs.Json.Null;
      Obs.Json.Bool true;
      Obs.Json.Bool false;
      Obs.Json.Num 0.0;
      Obs.Json.Num 42.0;
      Obs.Json.Num (-17.0);
      Obs.Json.Num 0.1;
      Obs.Json.Num 1e-300;
      Obs.Json.Num 1e300;
      Obs.Json.Num (1.0 /. 3.0);
      Obs.Json.Num 999999999999999.0;
      Obs.Json.Num 1e15;
      Obs.Json.Str "";
      Obs.Json.Str "plain";
      Obs.Json.Str "with \"quotes\" and \\ back\nslash\tand \x01 control";
      Obs.Json.Arr [];
      Obs.Json.Arr [ Obs.Json.Num 1.0; Obs.Json.Str "x"; Obs.Json.Null ];
      Obs.Json.Obj [ ("a", Obs.Json.Num 1.0); ("b", Obs.Json.Arr [ Obs.Json.Bool false ]) ];
    ];
  (* Non-finite floats have no JSON form: they print as null and come back
     as nan through the event decoder's to_float. *)
  Alcotest.(check string) "inf prints as null" "null" (Obs.Json.to_string (Obs.Json.Num infinity));
  Alcotest.(check string) "nan prints as null" "null" (Obs.Json.to_string (Obs.Json.Num nan));
  Alcotest.(check bool) "null reads as nan" true
    (Float.is_nan (Obs.Json.to_float Obs.Json.Null))

let test_json_errors () =
  List.iter
    (fun s ->
      match Obs.Json.of_string s with
      | Ok _ -> Alcotest.failf "expected parse error for %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,"; "{\"a\":}"; "tru"; "1.2.3"; "\"unterminated"; "{} trailing"; "{'a':1}" ]

let test_json_exact_float_round_trip () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:500 ~name:"float survives print/parse" QCheck.float (fun x ->
         let x = if Float.is_finite x then x else 0.0 in
         match Obs.Json.of_string (Obs.Json.to_string (Obs.Json.Num x)) with
         | Ok (Obs.Json.Num y) -> Int64.bits_of_float y = Int64.bits_of_float x
         | _ -> false))

(* Random whole documents: arbitrary byte strings as keys and values,
   finite floats, nested arrays/objects. Two renderings are compared
   (rather than the values) so -0.0 vs 0.0 cannot produce a spurious
   failure: equal text implies an equal parse. *)
let json_value_gen =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         let scalar =
           oneof
             [
               return Obs.Json.Null;
               map (fun b -> Obs.Json.Bool b) bool;
               map
                 (fun f -> Obs.Json.Num (if Float.is_finite f then f else 0.0))
                 QCheck.Gen.float;
               map (fun s -> Obs.Json.Str s) (string_size (int_bound 12));
             ]
         in
         if n = 0 then scalar
         else
           frequency
             [
               (3, scalar);
               (1, map (fun l -> Obs.Json.Arr l) (list_size (int_bound 4) (self (n / 2))));
               ( 1,
                 map
                   (fun l -> Obs.Json.Obj l)
                   (list_size (int_bound 4)
                      (pair (string_size (int_bound 8)) (self (n / 2)))) );
             ])

let test_json_document_round_trip_random () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:300 ~name:"random document survives print/parse"
       (QCheck.make ~print:(fun v -> Obs.Json.to_string v) json_value_gen)
       (fun v ->
         let s = Obs.Json.to_string v in
         match Obs.Json.of_string s with
         | Ok v' -> Obs.Json.to_string v' = s
         | Error _ -> false))

let test_json_adversarial_strings () =
  (* Every byte value must survive one escape/unescape cycle. *)
  let all_bytes = String.init 256 Char.chr in
  (match Obs.Json.of_string (Obs.Json.to_string (Obs.Json.Str all_bytes)) with
  | Ok (Obs.Json.Str s) -> Alcotest.(check string) "all 256 bytes round-trip" all_bytes s
  | Ok _ | Error _ -> Alcotest.fail "all-bytes string did not parse back");
  (* Escapes the printer never emits but a peer may send. *)
  List.iter
    (fun (input, expect) ->
      match Obs.Json.of_string input with
      | Ok (Obs.Json.Str s) -> Alcotest.(check string) input expect s
      | Ok _ -> Alcotest.failf "%s: parsed to a non-string" input
      | Error e -> Alcotest.failf "%s: %s" input e)
    [
      ({|"a\/b"|}, "a/b");
      ({|"AZ"|}, "AZ");
      ({|"\b\f"|}, "\b\012");
      ({|"tab\there"|}, "tab\there");
    ];
  (* Malformed escapes and truncated strings are errors, not crashes. *)
  List.iter
    (fun s ->
      match Obs.Json.of_string s with
      | Ok _ -> Alcotest.failf "expected parse error for %S" s
      | Error _ -> ())
    [ {|"\x"|}; {|"\u12"|}; {|"\u12zz"|}; {|"\|}; "\"abc"; "\"a\\" ]

let test_json_deep_nesting () =
  let depth = 400 in
  let doc =
    String.concat "" (List.init depth (fun _ -> "["))
    ^ "0"
    ^ String.concat "" (List.init depth (fun _ -> "]"))
  in
  (match Obs.Json.of_string doc with
  | Ok v ->
      let rec measure acc = function
        | Obs.Json.Arr [ inner ] -> measure (acc + 1) inner
        | Obs.Json.Num 0.0 -> acc
        | _ -> Alcotest.fail "unexpected shape"
      in
      Alcotest.(check int) "array nesting depth" depth (measure 0 v)
  | Error e -> Alcotest.failf "deep array: %s" e);
  let obj =
    String.concat "" (List.init depth (fun _ -> {|{"k":|}))
    ^ "null"
    ^ String.concat "" (List.init depth (fun _ -> "}"))
  in
  match Obs.Json.of_string obj with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "deep object: %s" e

let test_json_truncated_prefixes () =
  (* Every strict prefix of a valid document must come back Ok or Error —
     never an escaping exception. (Some prefixes are themselves valid:
     "12" is a prefix of "123".) *)
  let docs =
    [
      {|{"a":[1,true,"x\n"],"b":{"c":null,"d":-1.5e-3}}|};
      {|[[],{},"é",1e10]|};
      Obs.Json.to_string (Obs.Event.to_json (List.nth sample_events 1));
    ]
  in
  List.iter
    (fun doc ->
      for n = 0 to String.length doc - 1 do
        let prefix = String.sub doc 0 n in
        match Obs.Json.of_string prefix with
        | Ok _ | Error _ -> ()
        | exception exn ->
            Alcotest.failf "prefix %S raised %s" prefix (Printexc.to_string exn)
      done)
    docs

(* --- Event encoding --- *)

let test_event_round_trip () =
  List.iter
    (fun ev ->
      let line = Obs.Json.to_string (Obs.Event.to_json ev) in
      match Obs.Json.of_string line with
      | Error e -> Alcotest.failf "parse: %s" e
      | Ok j -> begin
          match Obs.Event.of_json j with
          | Error e -> Alcotest.failf "decode: %s" e
          | Ok ev' -> begin
              match Obs.Event.diff ~tol:0.0 ev ev' with
              | None -> ()
              | Some d -> Alcotest.failf "round-trip differs: %s (line %s)" d line
            end
        end)
    sample_events

let test_event_round_trip_random () =
  let finite f = if Float.is_finite f then f else 0.0 in
  let gen =
    QCheck.(quad (list_of_size Gen.(int_bound 8) float) float small_nat (int_bound 5))
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:300 ~name:"random move event round-trips" gen
       (fun (vals, cost, seed, cls) ->
         let vals = Array.of_list (List.map finite vals) in
         let grid = Array.map (fun v -> abs (int_of_float v) mod 1000) vals in
         let ev =
           mk ~moves:(abs seed) ~temperature:(finite (cost *. 0.5))
             (Obs.Event.Move
                {
                  cls;
                  class_name = Printf.sprintf "class-%d" cls;
                  decision = (if cls mod 2 = 0 then Obs.Event.Accepted else Obs.Event.Rejected);
                  delta_cost = finite cost;
                  cost = finite (cost +. 1.0);
                  state = (if cls mod 2 = 0 then Some (vals, grid) else None);
                })
         in
         match
           Result.bind
             (Obs.Json.of_string (Obs.Json.to_string (Obs.Event.to_json ev)))
             Obs.Event.of_json
         with
         | Ok ev' -> Obs.Event.diff ~tol:0.0 ev ev' = None
         | Error _ -> false))

let test_event_diff_detects_changes () =
  let base = List.nth sample_events 1 in
  Alcotest.(check bool) "equal to itself" true (Obs.Event.diff ~tol:0.0 base base = None);
  let tweaked = { base with Obs.Event.temperature = base.Obs.Event.temperature +. 1e-3 } in
  Alcotest.(check bool) "float change detected" true
    (Obs.Event.diff ~tol:1e-9 base tweaked <> None);
  Alcotest.(check bool) "within tolerance passes" true
    (Obs.Event.diff ~tol:1e-2 base tweaked = None);
  let other = List.nth sample_events 4 in
  Alcotest.(check bool) "different kinds differ" true (Obs.Event.diff ~tol:1.0 base other <> None)

let test_levels () =
  List.iter
    (fun l ->
      match Obs.Event.level_of_string (Obs.Event.level_to_string l) with
      | Ok l' -> Alcotest.(check bool) "level string round-trip" true (l = l')
      | Error e -> Alcotest.fail e)
    [ Obs.Event.Off; Obs.Event.Summary; Obs.Event.Stage; Obs.Event.Moves ];
  Alcotest.(check bool) "unknown level rejected" true
    (Result.is_error (Obs.Event.level_of_string "verbose"));
  Alcotest.(check bool) "summary <= moves" true
    (Obs.Event.level_leq Obs.Event.Summary Obs.Event.Moves);
  Alcotest.(check bool) "moves > stage" false
    (Obs.Event.level_leq Obs.Event.Moves Obs.Event.Stage)

let test_trace_level_filtering () =
  (* Each body kind is recorded only at (or above) its own level. *)
  let expected = [ (Obs.Event.Off, 0); (Obs.Event.Summary, 3); (Obs.Event.Stage, 6); (Obs.Event.Moves, 9) ] in
  List.iter
    (fun (level, expect) ->
      let ring = Obs.Sink.Ring.create ~capacity:64 in
      let t = Obs.Trace.make ~level [ Obs.Sink.Ring.sink ring ] in
      List.iter
        (fun (ev : Obs.Event.t) ->
          Obs.Trace.emit t ~moves:ev.moves ~temperature:ev.temperature ~acceptance:ev.acceptance
            ev.body)
        sample_events;
      Alcotest.(check int)
        (Printf.sprintf "events at level %s" (Obs.Event.level_to_string level))
        expect
        (Obs.Sink.Ring.length ring))
    expected;
  (* The empty-sink and none traces are disabled at every level. *)
  Alcotest.(check bool) "none disabled" false (Obs.Trace.enabled Obs.Trace.none Obs.Event.Summary);
  Alcotest.(check bool) "no sinks disabled" false
    (Obs.Trace.enabled (Obs.Trace.make ~level:Obs.Event.Moves []) Obs.Event.Summary)

let test_trace_restart_stamping () =
  let ring = Obs.Sink.Ring.create ~capacity:8 in
  let t = Obs.Trace.make ~level:Obs.Event.Summary [ Obs.Sink.Ring.sink ring ] in
  Alcotest.(check int) "default restart" 0 (Obs.Trace.restart t);
  let t7 = Obs.Trace.with_restart t 7 in
  Obs.Trace.emit t7 ~moves:1 ~temperature:0.0 ~acceptance:1.0
    (Obs.Event.Restart { total_moves = 10; classes = [| "a" |] });
  (match Obs.Sink.Ring.contents ring with
  | [ ev ] -> Alcotest.(check int) "stamped restart" 7 ev.Obs.Event.restart
  | l -> Alcotest.failf "expected 1 event, got %d" (List.length l));
  Alcotest.(check int) "original unchanged" 0 (Obs.Trace.restart t)

(* --- Sinks --- *)

let test_ring_eviction () =
  let ring = Obs.Sink.Ring.create ~capacity:3 in
  let sink = Obs.Sink.Ring.sink ring in
  for i = 1 to 5 do
    sink.Obs.Sink.emit
      (mk ~moves:i (Obs.Event.Restart { total_moves = i; classes = [||] }))
  done;
  Alcotest.(check int) "length capped" 3 (Obs.Sink.Ring.length ring);
  Alcotest.(check int) "dropped counted" 2 (Obs.Sink.Ring.dropped ring);
  let kept = List.map (fun (e : Obs.Event.t) -> e.moves) (Obs.Sink.Ring.contents ring) in
  Alcotest.(check (list int)) "most recent, oldest first" [ 3; 4; 5 ] kept;
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Sink.Ring.create: capacity must be >= 1") (fun () ->
      ignore (Obs.Sink.Ring.create ~capacity:0))

let test_summary_stats () =
  let s = Obs.Sink.Summary.create () in
  let sink = Obs.Sink.Summary.sink s in
  List.iter (fun ev -> sink.Obs.Sink.emit ev) sample_events;
  let st = Obs.Sink.Summary.stats s in
  Alcotest.(check int) "events" (List.length sample_events) st.Obs.Sink.Summary.events;
  Alcotest.(check int) "restarts" 1 st.restarts;
  Alcotest.(check int) "moves (all decisions count)" 3 st.moves;
  Alcotest.(check int) "accepted" 1 st.accepted;
  Alcotest.(check (float 0.0)) "best cost is min over Done" 0.5 st.best_cost;
  Alcotest.(check int) "one stage row" 1 (List.length st.stage_rows);
  (match st.class_rows with
  | [ a; b ] ->
      Alcotest.(check string) "classes sorted" "a" a.Obs.Sink.Summary.cr_name;
      Alcotest.(check int) "a attempts" 2 a.cr_attempts;
      Alcotest.(check int) "a inapplicable" 1 a.cr_inapplicable;
      Alcotest.(check int) "b accepted" 1 b.cr_accepted
  | l -> Alcotest.failf "expected 2 class rows, got %d" (List.length l));
  Alcotest.(check (list (pair int string))) "aborts recorded"
    [ (1, "deadline") ] st.aborts

let test_jsonl_file_round_trip () =
  let path = Filename.temp_file "obs-test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let sink = Obs.Sink.jsonl_file path in
      List.iter (fun ev -> sink.Obs.Sink.emit ev) sample_events;
      sink.Obs.Sink.close ();
      sink.Obs.Sink.close ();
      (* idempotent *)
      match Obs.Replay.read_file path with
      | Error e -> Alcotest.fail e
      | Ok evs ->
          Alcotest.(check int) "all lines back" (List.length sample_events) (List.length evs);
          List.iter2
            (fun a b ->
              match Obs.Event.diff ~tol:0.0 a b with
              | None -> ()
              | Some d -> Alcotest.failf "file round-trip differs: %s" d)
            sample_events evs)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_read_lines_reports_bad_line () =
  let good = Obs.Json.to_string (Obs.Event.to_json (List.hd sample_events)) in
  match Obs.Replay.read_lines [ good; "{oops"; good ] with
  | Ok _ -> Alcotest.fail "expected decode failure"
  | Error e -> Alcotest.(check bool) "names the line" true (contains_sub e "2")

(* --- Annealer-level tracing and generic replay --- *)

let vector_problem ~cost ~dim ~span =
  {
    Anneal.Annealer.classes = [| "perturb"; "big" |];
    propose =
      (fun st k rng ->
        let i = Anneal.Rng.int rng dim in
        let old = st.(i) in
        let scale = if k = 0 then 0.1 *. span else span in
        st.(i) <- Float.max (-.span) (Float.min span (old +. (Anneal.Rng.gaussian rng *. scale)));
        Some (fun () -> st.(i) <- old));
    cost;
    snapshot = Array.copy;
    frozen = None;
    on_stage = None;
    on_result = None;
    abort = None;
    batch = None;
  }

let test_annealer_trace_stream () =
  let cost st = Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 st in
  let ring = Obs.Sink.Ring.create ~capacity:100_000 in
  let trace = Obs.Trace.make ~level:Obs.Event.Moves [ Obs.Sink.Ring.sink ring ] in
  let total_moves = 4000 in
  let out =
    Anneal.Annealer.run ~trace
      ~view:(fun st -> (Array.copy st, [||]))
      ~rng:(Anneal.Rng.create 123) ~total_moves ~init:(Array.make 3 2.0)
      (vector_problem ~cost ~dim:3 ~span:4.0)
  in
  let evs = Obs.Sink.Ring.contents ring in
  let moves_evs =
    List.filter (fun (e : Obs.Event.t) -> Obs.Event.kind e = "move") evs
  in
  Alcotest.(check int) "one Move event per decided move" out.Anneal.Annealer.moves
    (List.length moves_evs);
  (* The moves counter on Move events is the 1-based decided-move index. *)
  List.iteri
    (fun i (e : Obs.Event.t) -> Alcotest.(check int) "move index" (i + 1) e.moves)
    moves_evs;
  let stage_evs = List.filter (fun (e : Obs.Event.t) -> Obs.Event.kind e = "stage") evs in
  Alcotest.(check int) "one Stage event per stage" out.stages (List.length stage_evs);
  List.iter
    (fun (e : Obs.Event.t) ->
      match e.body with
      | Obs.Event.Stage { probs; _ } ->
          Alcotest.(check (float 1e-9)) "Hustin probs sum to 1" 1.0
            (Array.fold_left ( +. ) 0.0 probs)
      | _ -> assert false)
    stage_evs;
  (* Replay: the cost of every accepted state must recompute exactly (the
     weights are irrelevant for a plain vector problem). *)
  let replay_cost ~w_perf:_ ~w_dev:_ ~w_dc:_ ~values ~grid:_ = cost values in
  (match Obs.Replay.check ~cost:replay_cost ~tol:0.0 evs with
  | Error (ms, _) -> Alcotest.failf "%d replay mismatches" (List.length ms)
  | Ok st ->
      Alcotest.(check bool) "replay covered accepted moves" true (st.Obs.Replay.rs_checked > 0);
      Alcotest.(check (float 0.0)) "bit-exact" 0.0 st.rs_max_rel_err);
  (* Tracing must not perturb the run: an untraced run is bit-identical. *)
  let out' =
    Anneal.Annealer.run ~rng:(Anneal.Rng.create 123) ~total_moves ~init:(Array.make 3 2.0)
      (vector_problem ~cost ~dim:3 ~span:4.0)
  in
  Alcotest.(check (float 0.0)) "trace does not perturb the run" out.best_cost
    out'.Anneal.Annealer.best_cost;
  Alcotest.(check int) "same stage count" out.stages out'.stages

(* --- OBLX-level tracing and replay --- *)

(* The tiny common-source sizing problem from test_anneal.ml: fast enough
   that multi-run synthesis finishes in seconds. *)
let cs_source =
  {|.title common-source stage
.process p1u2
.param vddval=5

.subckt amp in out vdd vss
m1 out in vss vss nmos w='w' l='l'
m2 out nbp vdd vdd pmos w='wp' l='l'
vbp vdd nbp 'vb'
.ends

.var w min=2u max=200u steps=80
.var l min=1.2u max=10u steps=40
.var wp min=2u max=200u steps=80
.var vb min=0.5 max=2.5

.jig main
xamp in out nvdd nvss amp
vdd nvdd 0 'vddval'
vss nvss 0 0
vin in 0 1.2 ac 1
cl1 out 0 2p
.pz tf v(out) vin
.endjig

.bias
xamp in out nvdd nvss amp
vdd nvdd 0 'vddval'
vss nvss 0 0
vin in 0 1.2
cl1 out 0 2p
.endbias

.obj gain 'db(dc_gain(tf))' good=30 bad=5
.spec ugf 'ugf(tf)' good=5meg bad=100k
|}

let compile_cs () =
  match Core.Compile.compile_source cs_source with
  | Ok p -> p
  | Error e -> Alcotest.failf "compile: %s" e

let test_synthesize_trace_replays () =
  let p = compile_cs () in
  let ring = Obs.Sink.Ring.create ~capacity:100_000 in
  let obs = Obs.Trace.make ~level:Obs.Event.Moves [ Obs.Sink.Ring.sink ring ] in
  let r = Core.Oblx.synthesize ~seed:4 ~moves:800 ~obs p in
  let evs = Obs.Sink.Ring.contents ring in
  Alcotest.(check int) "nothing dropped" 0 (Obs.Sink.Ring.dropped ring);
  (* Stream shape: Restart first, Done last, Weight_update present. *)
  (match evs with
  | first :: _ -> Alcotest.(check string) "starts with restart" "restart" (Obs.Event.kind first)
  | [] -> Alcotest.fail "empty trace");
  let last = List.nth evs (List.length evs - 1) in
  (match last.Obs.Event.body with
  | Obs.Event.Done { best_cost; aborted; abort_reason; accepted; _ } ->
      Alcotest.(check (float 0.0)) "Done carries the run's best" r.Core.Oblx.best_cost best_cost;
      Alcotest.(check bool) "not aborted" false aborted;
      Alcotest.(check bool) "no abort reason" true (abort_reason = None);
      Alcotest.(check int) "accepted count matches" r.accepted accepted
  | _ -> Alcotest.fail "last event is not Done");
  Alcotest.(check bool) "weight updates present" true
    (List.exists (fun e -> Obs.Event.kind e = "weights") evs);
  (* In-process replay is bit-exact: the evaluator is pure. *)
  match Core.Oblx.replay ~tol:0.0 p evs with
  | Error (ms, _) ->
      Alcotest.failf "replay mismatches: %s"
        (Format.asprintf "%a" Obs.Replay.pp_mismatch (List.hd ms))
  | Ok st ->
      Alcotest.(check bool) "accepted states re-evaluated" true (st.Obs.Replay.rs_checked > 0);
      Alcotest.(check (float 0.0)) "bit-exact replay" 0.0 st.rs_max_rel_err;
      Alcotest.(check int) "single restart" 1 st.rs_restarts

(* The acceptance criterion as a test: a traced multi-start run replays with
   zero cost mismatches for jobs=1 and jobs=4, and the two job counts
   produce identical per-restart event streams. *)
let test_best_of_trace_jobs_invariant () =
  let p = compile_cs () in
  let runs = 3 and seed = 8 and moves = 900 in
  let collect jobs =
    let ring = Obs.Sink.Ring.create ~capacity:200_000 in
    let obs = Obs.Trace.make ~level:Obs.Event.Moves [ Obs.Sink.Ring.sink ring ] in
    let _ = Core.Oblx.best_of ~seed ~moves ~jobs ~obs ~runs p in
    Alcotest.(check int) "nothing dropped" 0 (Obs.Sink.Ring.dropped ring);
    Obs.Sink.Ring.contents ring
  in
  let evs1 = collect 1 and evs4 = collect 4 in
  (* Both interleavings replay cleanly. *)
  List.iter
    (fun (label, evs) ->
      match Core.Oblx.replay ~tol:0.0 p evs with
      | Error (ms, _) -> Alcotest.failf "%s: %d replay mismatches" label (List.length ms)
      | Ok st ->
          Alcotest.(check int) (label ^ ": all restarts seen") runs st.Obs.Replay.rs_restarts;
          Alcotest.(check bool) (label ^ ": replay covered states") true (st.rs_checked > 0);
          Alcotest.(check (float 0.0)) (label ^ ": bit-exact") 0.0 st.rs_max_rel_err)
    [ ("jobs=1", evs1); ("jobs=4", evs4) ];
  (* Demultiplexed per restart, the streams are identical event-for-event:
     the --jobs invariance of docs/PARALLEL.md, extended to telemetry. *)
  let per_restart evs k =
    List.filter (fun (e : Obs.Event.t) -> e.Obs.Event.restart = k) evs
  in
  for k = 0 to runs - 1 do
    let a = per_restart evs1 k and b = per_restart evs4 k in
    Alcotest.(check int) (Printf.sprintf "restart %d: same event count" k) (List.length a)
      (List.length b);
    List.iter2
      (fun x y ->
        match Obs.Event.diff ~tol:0.0 x y with
        | None -> ()
        | Some d -> Alcotest.failf "restart %d stream differs: %s" k d)
      a b
  done

let test_abort_reason_recorded () =
  (* Regression: the abort poll used to collapse the cutoff's verdict into
     a boolean; the reason must survive into the result and the Done
     event. *)
  let p = compile_cs () in
  let ring = Obs.Sink.Ring.create ~capacity:10_000 in
  let obs = Obs.Trace.make ~level:Obs.Event.Summary [ Obs.Sink.Ring.sink ring ] in
  let control ~progress ~best:_ = if progress > 0.1 then Some "test cutoff" else None in
  let r = Core.Oblx.synthesize ~seed:3 ~moves:2000 ~control ~obs p in
  Alcotest.(check bool) "cut short" true r.Core.Oblx.cut_short;
  Alcotest.(check (option string)) "reason preserved" (Some "test cutoff") r.cut_reason;
  let dones =
    List.filter_map
      (fun (e : Obs.Event.t) ->
        match e.Obs.Event.body with
        | Obs.Event.Done { aborted; abort_reason; _ } -> Some (aborted, abort_reason)
        | _ -> None)
      (Obs.Sink.Ring.contents ring)
  in
  match dones with
  | [ (aborted, abort_reason) ] ->
      Alcotest.(check bool) "Done.aborted" true aborted;
      Alcotest.(check (option string)) "Done.abort_reason" (Some "test cutoff") abort_reason
  | l -> Alcotest.failf "expected 1 Done event, got %d" (List.length l)

(* --- Golden trace --- *)

(* Parameters are the contract with test/gen_golden.ml. *)
let golden_path = "golden/simple_ota.jsonl"
let golden_circuit = "simple-ota"
let golden_seed = 11
let golden_moves = 600

(* Stage-level goldens of the larger circuits: (file, circuit, seed, moves).
   They pin every stage's costs, penalty weights and evaluator counters,
   so a numeric kernel that reorders a single operation fails here. *)
let stage_goldens =
  [
    ("golden/folded_cascode_stage.jsonl", "folded-cascode", 3, 1200);
    ("golden/bicmos_two_stage_stage.jsonl", "bicmos-two-stage", 5, 1200);
    ("golden/two_stage_stage.jsonl", "two-stage", 9, 1200);
    ("golden/tran_buffer_stage.jsonl", "tran-buffer", 7, 400);
    ("golden/ota_stage.jsonl", "ota", 13, 1200);
  ]

let compile_named circuit =
  match Suite.Ckts.find circuit with
  | None -> Alcotest.failf "unknown circuit %s" circuit
  | Some e -> begin
      match Core.Compile.compile_source e.Suite.Ckts.source with
      | Ok p -> p
      | Error msg -> Alcotest.failf "compile: %s" msg
    end

let compile_golden () = compile_named golden_circuit

(* Each golden run's result by circuit, so the verify golden reuses the
   run its trace test made (a traced run's winner is the plain run's). *)
let golden_runs : (string, Core.Problem.t * Core.Oblx.result) Hashtbl.t = Hashtbl.create 8

(* Re-run [circuit] at [level] and diff every event against [path]. *)
let check_golden ~path ~circuit ~seed ~moves ~level =
  let golden =
    match Obs.Replay.read_file path with
    | Ok evs -> evs
    | Error e -> Alcotest.failf "golden trace unreadable (regenerate with test/gen_golden.exe): %s" e
  in
  let p = compile_named circuit in
  let ring = Obs.Sink.Ring.create ~capacity:100_000 in
  let obs = Obs.Trace.make ~level [ Obs.Sink.Ring.sink ring ] in
  let r = Core.Oblx.synthesize ~seed ~moves ~obs p in
  Hashtbl.replace golden_runs circuit (p, r);
  let fresh = Obs.Sink.Ring.contents ring in
  Alcotest.(check int) "same event count" (List.length golden) (List.length fresh);
  (* The tolerance absorbs last-bit libm drift when the golden file was
     produced by a different build; within one build the diff is exact. *)
  let i = ref 0 in
  List.iter2
    (fun g f ->
      incr i;
      match Obs.Event.diff ~tol:1e-9 g f with
      | None -> ()
      | Some d -> Alcotest.failf "golden event %d differs: %s" !i d)
    golden fresh

let test_golden_trace_matches () =
  check_golden ~path:golden_path ~circuit:golden_circuit ~seed:golden_seed ~moves:golden_moves
    ~level:Obs.Event.Moves

let stage_golden_cases =
  List.map
    (fun (path, circuit, seed, moves) ->
      Alcotest.test_case (circuit ^ " stage trace matches") `Slow (fun () ->
          check_golden ~path ~circuit ~seed ~moves ~level:Obs.Event.Stage))
    stage_goldens

(* verify.jsonl: every Verify.simulate_specs value of each golden run's
   winner under [%h], one line per circuit (test/gen_golden.ml writes it).
   It pins the reference simulator's DC, AC and transient paths bit for
   bit. *)
let verify_golden_path = "golden/verify.jsonl"

let golden_run circuit =
  match Hashtbl.find_opt golden_runs circuit with
  | Some run -> run
  | None ->
      let seed, moves =
        if circuit = golden_circuit then (golden_seed, golden_moves)
        else
          match List.find_opt (fun (_, c, _, _) -> c = circuit) stage_goldens with
          | Some (_, _, seed, moves) -> (seed, moves)
          | None -> Alcotest.failf "verify golden names an unknown run %s" circuit
      in
      let p = compile_named circuit in
      let run = (p, Core.Oblx.synthesize ~seed ~moves p) in
      Hashtbl.replace golden_runs circuit run;
      run

let test_verify_golden () =
  let lines = In_channel.with_open_text verify_golden_path In_channel.input_lines in
  Alcotest.(check int) "one line per golden run" (1 + List.length stage_goldens) (List.length lines);
  List.iter
    (fun line ->
      let j =
        match Obs.Json.of_string line with
        | Ok j -> j
        | Error e -> Alcotest.failf "verify golden unreadable: %s" e
      in
      let open Obs.Json in
      let circuit = field "circuit" to_str j in
      let p, r = golden_run circuit in
      let want =
        match mem_opt "error" j with
        | Some e -> Error (to_str e)
        | None ->
            Ok
              (List.map
                 (fun pair ->
                   match to_list pair with
                   | [ name; v ] -> (to_str name, to_str v)
                   | _ -> Alcotest.failf "%s: bad spec entry" circuit)
                 (field "specs" to_list j))
      in
      let value = function Ok v -> Printf.sprintf "%h" v | Error m -> "error: " ^ m in
      let got =
        Result.map
          (List.map (fun (name, v) -> (name, value v)))
          (Core.Verify.simulate_specs p r.Core.Oblx.final)
      in
      Alcotest.(check (result (list (pair string string)) string)) (circuit ^ " verify values") want got)
    lines

let test_golden_trace_replays () =
  let p = compile_golden () in
  match Obs.Replay.read_file golden_path with
  | Error e -> Alcotest.failf "golden trace unreadable: %s" e
  | Ok evs -> begin
      match Core.Oblx.replay ~tol:1e-6 p evs with
      | Error (ms, st) ->
          Alcotest.failf "%d mismatches (max rel err %g)" (List.length ms)
            st.Obs.Replay.rs_max_rel_err
      | Ok st ->
          Alcotest.(check bool) "accepted states re-evaluated" true
            (st.Obs.Replay.rs_checked > 0);
          Alcotest.(check bool) "within tolerance" true (st.rs_max_rel_err <= 1e-6)
    end

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "scalar round-trips" `Quick test_json_scalars;
          Alcotest.test_case "parse errors" `Quick test_json_errors;
          Alcotest.test_case "float bit-exactness (property)" `Quick
            test_json_exact_float_round_trip;
          Alcotest.test_case "document round-trips (property)" `Quick
            test_json_document_round_trip_random;
          Alcotest.test_case "adversarial strings" `Quick test_json_adversarial_strings;
          Alcotest.test_case "deep nesting" `Quick test_json_deep_nesting;
          Alcotest.test_case "truncated prefixes" `Quick test_json_truncated_prefixes;
        ] );
      ( "event",
        [
          Alcotest.test_case "round-trip all kinds" `Quick test_event_round_trip;
          Alcotest.test_case "round-trip random moves (property)" `Quick
            test_event_round_trip_random;
          Alcotest.test_case "diff detects changes" `Quick test_event_diff_detects_changes;
          Alcotest.test_case "levels" `Quick test_levels;
        ] );
      ( "trace",
        [
          Alcotest.test_case "level filtering" `Quick test_trace_level_filtering;
          Alcotest.test_case "restart stamping" `Quick test_trace_restart_stamping;
        ] );
      ( "sink",
        [
          Alcotest.test_case "ring eviction" `Quick test_ring_eviction;
          Alcotest.test_case "summary stats" `Quick test_summary_stats;
          Alcotest.test_case "jsonl file round-trip" `Quick test_jsonl_file_round_trip;
          Alcotest.test_case "bad line reported" `Quick test_read_lines_reports_bad_line;
        ] );
      ( "annealer",
        [ Alcotest.test_case "trace stream + replay" `Quick test_annealer_trace_stream ] );
      ( "oblx",
        [
          Alcotest.test_case "synthesize trace replays" `Slow test_synthesize_trace_replays;
          Alcotest.test_case "jobs-invariant trace + replay" `Slow
            test_best_of_trace_jobs_invariant;
          Alcotest.test_case "abort reason recorded" `Quick test_abort_reason_recorded;
        ] );
      ( "golden",
        [
          Alcotest.test_case "matches regenerated run" `Slow test_golden_trace_matches;
          Alcotest.test_case "replays against cost function" `Slow test_golden_trace_replays;
        ]
        @ stage_golden_cases
        @ [ Alcotest.test_case "winners' verify values match" `Slow test_verify_golden ] );
    ]
