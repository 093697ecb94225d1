(** MILP presolve: bound tightening and redundancy elimination.

    Performs the classical safe reductions that keep the variable space
    intact (so solutions of the reduced model are solutions of the
    original, coordinate by coordinate):

    - {e activity analysis}: a row whose worst-case activity already
      satisfies it is dropped; one whose best-case activity violates it
      proves infeasibility;
    - {e bound propagation}: each row tightens the bounds of its
      variables against the residual activity of the others; integer
      variables round inward;
    - {e singleton rows} become pure bound updates and are dropped.

    Passes iterate to a fixpoint (bounded). {!Branch_bound} never
    presolves; [Temporal.Solver.solve] runs presolve before the search
    by default, and the reported model sizes stay the paper's. Rows are
    read through the packed store of {!Propagate}, built for the
    original model. *)

type stats = {
  rows_removed : int;
  bounds_tightened : int;
  vars_fixed : int;  (** Variables whose bounds collapsed to a point. *)
  passes : int;
  row_map : int array;
      (** Kept-row provenance: entry [k] is the original-model row index
          of the reduced model's row [k] (length = reduced row count).
          This is what maps row-indexed certificates ({!Certify},
          {!Iis}) computed on the reduced model back to the coordinates
          the caller named. *)
}

type result =
  | Infeasible of string
      (** Proven infeasible; the message names the witnessing row. *)
  | Reduced of Lp.t * stats
      (** Same variables (indices preserved), possibly tighter bounds,
          possibly fewer rows. *)

val presolve : Lp.t -> result
(** [presolve lp] returns a reduced model built by {!Lp.restrict}: it
    shares its kept rows with [lp], which is not mutated. At most 10
    passes run over the rows. *)

val pp_stats : Format.formatter -> stats -> unit
