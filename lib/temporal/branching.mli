(** Branch-and-bound variable-selection heuristics (paper Section 8).

    The paper's rule: branch first on the partitioning variables
    [y_tp], taking tasks in topological priority order (for a
    dependency [t1 -> t2], [t1] first) and partitions in increasing
    index, exploring the value-1 branch first; once no [y] is
    fractional, branch on any fractional functional-unit usage variable
    [u_pk]; never branch on the synthesis variables [x_ijk] explicitly
    (they are left to the default rule only as a last resort). *)

type strategy =
  | Paper  (** The Section 8 heuristic. *)
  | Most_fractional
      (** Pick the integer variable closest to 0.5 — a common solver
          default; stands in for the "leave it to the solver" baseline
          of Tables 1-2. *)
  | First_fractional
      (** Lowest-index fractional integer variable (Bland-like). *)

val rule : strategy -> Vars.t -> Ilp.Branch_bound.branch_rule
(** Builds the branch rule for a model. [Most_fractional] returns the
    always-fallback rule; [Paper] scans [y] in priority order then [u];
    [First_fractional] scans variables in creation order. *)
