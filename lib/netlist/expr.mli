(** The arithmetic expression language used in element values and in
    performance-specification cards, e.g.
    ['I / (2 * (Cl + xamp.m1.cd))'] or ['dc_gain(tf)'].

    Grammar (precedence low to high):
    {v
      expr   ::= term (('+'|'-') term)*
      term   ::= factor (('*'|'/') factor)*
      factor ::= atom ('^' factor)?
      atom   ::= number | ref | call | '-' atom | '(' expr ')'
      ref    ::= ident ('.' ident)*
      call   ::= ident '(' expr (',' expr)* ')'
    v}
    Numbers accept SPICE suffixes ([1Meg], [10p]). *)

type t =
  | Const of float
  | Ref of string list
      (** A possibly dotted reference: a plain variable/parameter ([I]), or
          a device operating-point quantity ([xamp.m1.cd]). *)
  | Call of string * t list
  | Neg of t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Pow of t * t

exception Parse_error of string

(** [parse s] parses an expression. @raise Parse_error *)
val parse : string -> t

(** Evaluation environment of element values: [lookup path] resolves a
    reference (raise [Not_found] for an unknown one); [call name args]
    applies a function to its evaluated arguments. Spec expressions are
    resolved and evaluated by [Core.Spec] instead. *)
type env = { lookup : string list -> float; call : string -> float list -> float }

exception Eval_error of string

(** [eval env e] evaluates [e]. Unknown references become [Eval_error]. *)
val eval : env -> t -> float

(** [subst map e] structurally substitutes single-identifier references:
    any [Ref [x]] with [x] bound in [map] is replaced — used when
    instantiating subcircuit parameters. *)
val subst : (string * t) list -> t -> t

(** [size e] counts AST nodes — used for the "Lines of C" size metric. *)
val size : t -> int

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** [const x] is a convenience constructor. *)
val const : float -> t
