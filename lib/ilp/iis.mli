(** Irreducible infeasible subsystem (IIS) extraction.

    Answers "{e which} constraints conflict?" for an LP-infeasible
    model: a subset of rows that is infeasible on its own (together
    with the variable bounds, which are always kept) and minimal under
    single-row deletion — removing any one row of the subsystem makes
    it feasible.

    The algorithm is the classical deletion filter, seeded by the exact
    Farkas certificate ({!Certify}): the support rows of an exactly
    verified ray already form an infeasible subsystem, so the filter
    starts from that (usually small) set instead of the whole model,
    and each deletion test is one LP solve on a candidate sub-model.
    Rows are only dropped when the remaining subsystem is itself
    {e certified} infeasible, so the final answer always carries an
    exact Farkas proof. *)

type result = {
  rows : int list;  (** Row indices into the original model, ascending. *)
  names : string list;  (** Matching row names, same order. *)
  certificate : Certify.t;
      (** Exact Farkas proof of the subsystem's infeasibility, with
          support already mapped back to original row indices. *)
  solves : int;  (** LP solves spent (initial solve + deletion tests). *)
}

type outcome =
  | Iis of result
  | Feasible  (** The LP relaxation is feasible: nothing to extract. *)
  | Inconclusive of string
      (** Infeasibility could not be certified exactly (e.g. the float
          verdict left no witness), so no trustworthy IIS exists. *)

val extract : Lp.t -> outcome
(** [extract lp] certifies the model's LP-relaxation infeasibility and
    minimizes the conflicting row set. Integrality markers are ignored
    (the subsystems are LP relaxations); the input model is not
    mutated. *)
