type t = { level : Event.level; restart : int; sinks : Sink.t list }

let none = { level = Event.Off; restart = 0; sinks = [] }
let make ?(restart = 0) ~level sinks = { level; restart; sinks }
let with_restart t restart = { t with restart }
let restart t = t.restart
let enabled t l = t.sinks <> [] && l <> Event.Off && Event.level_leq l t.level

let emit t ~moves ~temperature ~acceptance body =
  if enabled t (Event.level_of_body body) then begin
    let ev = { Event.restart = t.restart; moves; temperature; acceptance; body } in
    List.iter (fun (s : Sink.t) -> s.Sink.emit ev) t.sinks
  end

let close t = List.iter (fun (s : Sink.t) -> s.Sink.close ()) t.sinks
