(** Model-name resolution: maps the model names used in netlists (e.g.
    [nmos], [pmos], [npn], or user-declared names) to encapsulated device
    evaluators.

    A registry is built from an optional process (which contributes the
    conventional names below) plus explicit model declarations that
    override or extend it.

    Process-provided names: [nmos]/[pmos] (level 3), [nmos_1]/[pmos_1]
    (level 1), [nmos_bsim]/[pmos_bsim], and [npn]/[pnp]. *)

type t

type decl = {
  decl_name : string;
  decl_kind : string;  (** nmos | pmos | npn | pnp *)
  decl_level : string;  (** "1" | "3" | "bsim" (MOS); ignored for BJT *)
  decl_params : (string * float) list;
}

(** A process corner: multiplicative/additive skews applied on top of
    every resolved model — how foundries describe slow/fast silicon. *)
type corner = {
  corner_name : string;
  kp_scale : float;  (** mobility/transconductance multiplier *)
  vto_shift : float;  (** threshold shift, V (same sign both polarities) *)
  beta_scale : float;  (** BJT current-gain multiplier *)
}

(** The classic five: nominal, slow, fast, and the two skewed corners.
    [Core.Corners.standard] is this list; it lives here so the compiler
    can resolve corner-named spec rows without a layer cycle. *)
val standard_corners : corner list

(** [find_corner name] looks a corner up in {!standard_corners}. *)
val find_corner : string -> corner option

(** [build ?process ?corner decls] resolves every declaration eagerly so
    unknown parameters or kinds are reported up front. The optional corner
    skews every model (defaults to the nominal corner, which skews
    nothing). *)
val build : ?process:string -> ?corner:corner -> decl list -> (t, string) result

val find : t -> string -> Sig.resolved option

(** [find_exn t name] @raise Failure when the model is unknown. *)
val find_exn : t -> string -> Sig.resolved
