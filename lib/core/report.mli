(** Human-readable reporting: engineering-notation values, spec rows in the
    style of the paper's tables, and sized-design listings. *)

(** [eng v] formats with an engineering suffix ("73.7meg", "2.1u"). *)
val eng : float -> string

(** [goal_text spec] renders the target, e.g. ">=50meg", "maximize". *)
val goal_text : Problem.spec -> string

(** [spec_row spec ~predicted ~simulated] is one Table-2-style row:
    name, goal, OBLX prediction / simulator measurement. *)
val spec_row :
  Problem.spec -> predicted:float option -> simulated:(float, string) result option -> string

(** [sizes p st] lists every user variable's final value. *)
val sizes : Problem.t -> State.t -> (string * float) list

(** [print_sizes ppf p st] pretty-prints the sized design. *)
val print_sizes : Format.formatter -> Problem.t -> State.t -> unit

(** [sized_netlist p st] renders the bias network of the finished design
    as a SPICE deck with every value expression evaluated — the artifact a
    designer hands to layout or to a production simulator. Device-template
    internal resistors are folded back out (they belong to the model, not
    the schematic). *)
val sized_netlist : Problem.t -> State.t -> string
