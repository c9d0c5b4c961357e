(** A minimal JSON value type with a printer and parser, sufficient for the
    telemetry event stream: no external dependency, exact float round-trip
    (printed with 17 significant digits), one-line-per-event friendly.

    Non-finite floats are printed as [null] (JSON has no representation for
    them) and parse back as [nan]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string

(** [of_string s] parses one JSON value; trailing whitespace is allowed,
    anything else after the value is an error. *)
val of_string : string -> (t, string) result

(* Accessors used by the event decoder; all raise [Decode_error] with a
   field-naming message on shape mismatch. *)

exception Decode_error of string

val mem : string -> t -> t  (** object member, [Decode_error] if absent *)

val mem_opt : string -> t -> t option
val to_float : t -> float
val to_int : t -> int
val to_bool : t -> bool
val to_str : t -> string
val to_list : t -> t list

(** [located k conv v] is [conv v], with a [Decode_error] it raises
    prefixed by [field "k": ]. *)
val located : string -> (t -> 'a) -> t -> 'a

(** [field k conv j] is [conv] applied to member [k] of [j]. A missing
    member, or one [conv] rejects, raises [Decode_error] naming [k]. *)
val field : string -> (t -> 'a) -> t -> 'a
