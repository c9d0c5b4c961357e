(** SPICE-style numeric literals: a float with an optional engineering
    suffix, e.g. [1Meg] = 1e6, [2.5u] = 2.5e-6, [100f] = 1e-13.

    Suffixes (case-insensitive): f p n u m k meg g t. Any trailing unit
    letters after the suffix are ignored, as in SPICE ([10pF], [5kOhm]). *)

(** [parse s] parses a literal. *)
val parse : string -> (float, string) result

(** [is_number s] is true when [s] starts like a numeric literal (digit,
    sign, or dot followed by digit). *)
val is_number : string -> bool

(** [format x] renders with an engineering suffix, e.g. [2.5e-6] ->
    ["2.5u"]. *)
val format : float -> string
