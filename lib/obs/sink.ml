type t = { emit : Event.t -> unit; close : unit -> unit }

(* Domains of a parallel multi-start all emit into the same sink; a mutex
   per sink keeps each JSON line (and each ring slot) atomic. *)
let serialized emit close =
  let m = Mutex.create () in
  let locked f x =
    Mutex.lock m;
    Fun.protect ~finally:(fun () -> Mutex.unlock m) (fun () -> f x)
  in
  { emit = locked emit; close = locked close }

(* One flush per event keeps the file tail-able while a run is live and
   complete up to the last event if the process dies; the syscall is noise
   next to a single cost evaluation. *)
let output_line oc ev =
  output_string oc (Json.to_string (Event.to_json ev));
  output_char oc '\n';
  flush oc

let jsonl_file path =
  let oc = open_out path in
  let closed = ref false in
  serialized (output_line oc) (fun () ->
      if not !closed then begin
        closed := true;
        close_out oc
      end)

module Ring = struct
  type ring = {
    buf : Event.t option array;
    mutable next : int;  (** total events ever emitted *)
    lock : Mutex.t;
  }

  let create ~capacity =
    if capacity < 1 then invalid_arg "Sink.Ring.create: capacity must be >= 1";
    { buf = Array.make capacity None; next = 0; lock = Mutex.create () }

  let sink r =
    {
      emit =
        (fun ev ->
          Mutex.lock r.lock;
          r.buf.(r.next mod Array.length r.buf) <- Some ev;
          r.next <- r.next + 1;
          Mutex.unlock r.lock);
      close = (fun () -> ());
    }

  let length r = Int.min r.next (Array.length r.buf)
  let dropped r = Int.max 0 (r.next - Array.length r.buf)

  let contents r =
    Mutex.lock r.lock;
    let cap = Array.length r.buf in
    let n = length r in
    let start = r.next - n in
    let out = List.init n (fun i -> Option.get r.buf.((start + i) mod cap)) in
    Mutex.unlock r.lock;
    out
end

module Summary = struct
  type stage_row = {
    sr_restart : int;
    sr_stage : int;
    sr_moves : int;
    sr_temperature : float;
    sr_acceptance : float;
    sr_cost : float;
    sr_best : float;
  }

  type class_row = {
    cr_name : string;
    cr_attempts : int;
    cr_accepted : int;
    cr_inapplicable : int;
  }

  type stats = {
    events : int;
    restarts : int;
    moves : int;
    accepted : int;
    best_cost : float;
    stage_rows : stage_row list;
    class_rows : class_row list;
    eval_rows : (int * Event.evals_data) list;
    aborts : (int * string) list;
  }

  type summary = {
    mutable s_events : int;
    mutable s_restarts : int;
    mutable s_moves : int;
    mutable s_accepted : int;
    mutable s_best : float;
    mutable s_stages : stage_row list;  (** newest first *)
    classes : (string, int ref * int ref * int ref) Hashtbl.t;
    evals : (int, Event.evals_data) Hashtbl.t;  (** latest per restart *)
    mutable s_aborts : (int * string) list;
    lock : Mutex.t;
  }

  let create () =
    {
      s_events = 0;
      s_restarts = 0;
      s_moves = 0;
      s_accepted = 0;
      s_best = Float.infinity;
      s_stages = [];
      classes = Hashtbl.create 8;
      evals = Hashtbl.create 8;
      s_aborts = [];
      lock = Mutex.create ();
    }

  let observe s (ev : Event.t) =
    s.s_events <- s.s_events + 1;
    match ev.Event.body with
    | Event.Restart _ -> s.s_restarts <- s.s_restarts + 1
    | Event.Move { class_name; decision; _ } ->
        s.s_moves <- s.s_moves + 1;
        let att, acc, na =
          match Hashtbl.find_opt s.classes class_name with
          | Some c -> c
          | None ->
              let c = (ref 0, ref 0, ref 0) in
              Hashtbl.add s.classes class_name c;
              c
        in
        incr att;
        (match decision with
        | Event.Accepted ->
            s.s_accepted <- s.s_accepted + 1;
            incr acc
        | Event.Rejected -> ()
        | Event.Inapplicable -> incr na)
    | Event.Stage { stage; current_cost; best_cost; _ } ->
        s.s_stages <-
          {
            sr_restart = ev.restart;
            sr_stage = stage;
            sr_moves = ev.moves;
            sr_temperature = ev.temperature;
            sr_acceptance = ev.acceptance;
            sr_cost = current_cost;
            sr_best = best_cost;
          }
          :: s.s_stages
    | Event.Weight_update _ -> ()
    | Event.Evals e -> Hashtbl.replace s.evals ev.restart e
    | Event.Done { best_cost; aborted; abort_reason; _ } ->
        s.s_best <- Float.min s.s_best best_cost;
        if aborted then
          s.s_aborts <-
            (ev.restart, Option.value abort_reason ~default:"aborted") :: s.s_aborts

  let sink s =
    {
      emit =
        (fun ev ->
          Mutex.lock s.lock;
          observe s ev;
          Mutex.unlock s.lock);
      close = (fun () -> ());
    }

  let stats s =
    Mutex.lock s.lock;
    let class_rows =
      Hashtbl.fold
        (fun name (att, acc, na) rows ->
          { cr_name = name; cr_attempts = !att; cr_accepted = !acc; cr_inapplicable = !na }
          :: rows)
        s.classes []
      |> List.sort (fun a b -> String.compare a.cr_name b.cr_name)
    in
    let r =
      {
        events = s.s_events;
        restarts = s.s_restarts;
        moves = s.s_moves;
        accepted = s.s_accepted;
        best_cost = s.s_best;
        stage_rows = List.rev s.s_stages;
        class_rows;
        eval_rows =
          Hashtbl.fold (fun r e acc -> (r, e) :: acc) s.evals []
          |> List.sort (fun (a, _) (b, _) -> compare a b);
        aborts = List.rev s.s_aborts;
      }
    in
    Mutex.unlock s.lock;
    r
end
