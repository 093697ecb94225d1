(** Exhaustive-search reference solver.

    Independent of the ILP machinery: enumerates task-to-partition
    assignments (respecting temporal order and scratch memory), in
    increasing communication cost, and checks each for schedulability
    with a backtracking exact scheduler honoring mobility windows,
    functional-unit exclusivity, per-partition capacity and
    control-step exclusivity. The first schedulable assignment is a
    provably optimal solution.

    Exponential — intended for cross-validating the ILP on small
    instances (tests use graphs with up to ~12 operations). *)

val solve : ?max_assignments:int -> Spec.t -> Solution.t option
(** [None] when no feasible partition/schedule exists. Raises
    [Invalid_argument] when the enumeration space exceeds
    [max_assignments] (default [200_000]) — a guard against accidental
    use on large graphs. *)

val optimal_cost : ?max_assignments:int -> Spec.t -> int option
(** Communication cost of {!solve}'s result. *)

val steps_lower_bound : Spec.t -> int array -> int
(** Cheap lower bound on the total control steps a partition map needs
    (sum over partitions of max(intra critical path, per-kind count /
    affordable instances)); [max_int] when some partition's kinds cannot
    be covered within the capacity at all. Exceeding
    [Spec.num_steps spec] refutes the map without search. *)

val schedule_for_partition :
  ?max_backtracks:int ->
  ?deadline:float ->
  Spec.t ->
  int array ->
  [ `Schedule of int array * int array | `Infeasible | `Gave_up ]
(** Exact scheduling for a fixed task-to-partition map: operation steps
    and instance binding honoring windows, dependency order, instance
    exclusivity, per-partition capacity and control-step ownership.
    [`Infeasible] is a proof that no schedule exists for this map;
    [`Gave_up] means the backtrack budget was exhausted (default:
    unlimited) or the search ran past [deadline], an absolute
    {!Ilp.Mono.now} time (default: none), which is checked every 4096
    backtracks. Used as the branch-and-bound completion heuristic. *)
