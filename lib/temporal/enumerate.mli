(** Exhaustive-search reference solver.

    Enumerates the task-to-partition maps that respect temporal order
    (eq. 2) and scratch memory (eq. 3), in increasing communication
    cost, and checks each for schedulability with a backtracking exact
    scheduler honoring mobility windows, functional-unit exclusivity,
    per-partition capacity and control-step exclusivity. The first
    schedulable map is a provably optimal solution.

    Independent of the ILP machinery, but not of everything the
    branch and bound uses: the order and memory rules come from
    {!Maps}, which the completion hook reads too, and the scheduler is
    the one the hook runs. The counting bound ({!Maps.steps_lower_bound})
    is never applied here, so a wrong bound in the hook shows up as a
    disagreement with this solver.

    Exponential — intended for cross-validating the ILP on small
    instances (tests use graphs with up to ~12 operations). *)

val solve : ?max_assignments:int -> Spec.t -> Solution.t option
(** [None] when no feasible partition/schedule exists. Raises
    [Invalid_argument] when the enumeration space exceeds
    [max_assignments] (default [200_000]) — a guard against accidental
    use on large graphs. *)

val optimal_cost : ?max_assignments:int -> Spec.t -> int option
(** Communication cost of {!solve}'s result. *)

val schedule_for_partition :
  ?max_backtracks:int ->
  ?deadline:float ->
  Spec.t ->
  int array ->
  [ `Schedule of int array * int array | `Infeasible | `Gave_up ]
(** Exact scheduling for a fixed task-to-partition map: operation steps
    and instance binding honoring windows, dependency order, instance
    exclusivity, per-partition capacity and control-step ownership. It
    reads the map alone: eq. 2, eq. 3 and the counting bound are the
    caller's to check ({!Maps.refuted}).
    [`Infeasible] is a proof that no schedule exists for this map;
    [`Gave_up] means the backtrack budget was exhausted (default:
    unlimited) or the search ran past [deadline], an absolute
    {!Ilp.Mono.now} time (default: none), which is checked every 4096
    backtracks. Used as the branch-and-bound completion heuristic. *)
