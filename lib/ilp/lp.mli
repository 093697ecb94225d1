(** Mixed 0-1 / continuous linear-programming model builder.

    An {!t} is a mutable model under construction: variables with bounds
    and integrality markers, linear constraints, and a linear objective.
    Models are consumed by {!Simplex} (LP relaxation) and {!Branch_bound}
    (mixed 0-1 solve).

    Infinite bounds are represented by [Float.infinity] /
    [Float.neg_infinity]. *)

type var = private int
(** A variable handle. Handles are dense indices [0 .. num_vars - 1] in
    creation order; [(var :> int)] is stable and used by solvers. *)

type kind =
  | Continuous
  | Integer  (** General integer within its bounds. *)
  | Binary  (** Integer with bounds forced to [0, 1]. *)

type sense = Le | Ge | Eq

type linear = (float * var) list
(** Linear expression as (coefficient, variable) terms. Duplicate
    variables are summed. *)

type t

val create : ?name:string -> unit -> t

val name : t -> string

val add_var :
  t -> ?name:string -> ?lb:float -> ?ub:float -> kind -> var
(** [add_var t kind] adds a fresh variable. Defaults: [lb = 0.],
    [ub = infinity] for [Continuous]/[Integer]; [Binary] forces bounds
    [0, 1] regardless of [lb]/[ub]. Raises [Invalid_argument] if
    [lb > ub]. *)

val add_constr : t -> ?name:string -> linear -> sense -> float -> int
(** [add_constr t terms sense rhs] adds the constraint
    [terms sense rhs] and returns its row index. Raises
    [Invalid_argument] on an empty term list: an empty row is either
    vacuous or unsatisfiable, and always a generator bug. *)

val set_objective : t -> ?maximize:bool -> linear -> unit
(** Sets the objective (default: minimize). Internally everything is
    minimized; [maximize] negates coefficients and {!obj_sign}. *)

val obj_sign : t -> float
(** [+1.] when minimizing, [-1.] when maximizing: a solver's internal
    minimum [z] corresponds to user objective [obj_sign t *. z]. *)

val num_vars : t -> int

val num_constrs : t -> int

val var_name : t -> var -> string

val var_lb : t -> var -> float

val var_ub : t -> var -> float

val var_kind : t -> var -> kind

val set_bounds : t -> var -> lb:float -> ub:float -> unit
(** Overwrites the bounds of a variable (used by branch and bound).
    Raises [Invalid_argument] if [lb > ub]. *)

val is_integer_var : t -> var -> bool
(** [true] for [Integer] and [Binary] variables. *)

val integer_vars : t -> var list
(** All integer/binary variables in creation order. *)

val objective : t -> float array
(** Dense minimization-oriented objective (length {!num_vars}). Fresh
    array. *)

val row : t -> int -> linear * sense * float

val row_name : t -> int -> string

val iter_rows : t -> (int -> linear -> sense -> float -> unit) -> unit

val duplicate_row_names : t -> (string * int list) list
(** Row names borne by more than one row, with their row indices in
    ascending order (sorted by first occurrence). {!Temporal} audits
    match rows by name, so duplicates make a model unauditable;
    {!Analyze} reports them as warnings. *)

val var_of_int : t -> int -> var
(** Recover a handle from a dense index. Raises [Invalid_argument] when
    out of range. *)

val eval_linear : linear -> float array -> float
(** [eval_linear terms x] evaluates the expression at point [x]. *)

val copy : t -> t
(** Deep copy; mutating the copy leaves the original untouched. *)

val restrict : t -> rows:int array -> lb:float array -> ub:float array -> t
(** [restrict t ~rows ~lb ~ub] is a new model over [t]'s variables
    (same indices, names, objective, sense and name) holding [t]'s rows
    [rows] in that order, with variable bounds [lb]/[ub] (length
    {!num_vars}; the arrays are copied) and every [Binary] variable
    re-declared [Integer], so bounds tighter than [0, 1] stand. The
    kept rows are shared with [t], not copied: no operation mutates a
    row once added. Raises [Invalid_argument] on a row index out of
    range, a bound array of the wrong length, or [lb > ub]. *)

val pp_stats : Format.formatter -> t -> unit
(** One-line [vars/constrs/integers] summary. *)
