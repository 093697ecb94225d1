(** End-to-end solve of a formulated model.

    Thin orchestration over {!Ilp.Branch_bound} (whose search is the
    paper's depth-first, value-1-first order): installs the chosen
    branching strategy and the completion hook, and turns the raw
    solver vector into a validated {!Solution.t}. Eq. 14 sums integer
    bandwidths over binary variables, so the search prunes by whole
    units of cost. *)

type outcome =
  | Feasible of Solution.t  (** Proven optimal. *)
  | Infeasible_model
      (** No partition/schedule satisfies the constraints (the "No"
          rows of the paper's Tables 3-4). *)
  | Timed_out of Solution.t option
      (** Time limit; carries the incumbent if any. *)

type report = {
  outcome : outcome;
  vars : int;  (** Model size: variables (the paper's "Var" column). *)
  constrs : int;  (** Model size: constraints ("Const" column). *)
  stats : Ilp.Branch_bound.stats;
  objective : float option;
      (** Model objective of the design found, if any: eq. 14, which
          charges an edge's bandwidth once per partition boundary it
          spans, [sum bw * (p(t2) - p(t1))]. It equals the design's
          {!Solution.t}[.comm_cost]. *)
}

val scheduler_hook :
  deadline:float ->
  Vars.t ->
  Ilp.Branch_bound.hook_point ->
  is_fixed:(int -> bool) ->
  Ilp.Branch_bound.hook_result
(** The exact-scheduler completion hook [solve] installs (see
    [scheduler_completion] below), giving up at [deadline], an absolute
    {!Ilp.Mono.now} time. Its [Bounds] call prunes when
    {!Maps.refuted} holds for the partial map of the fixed [y] and,
    once every [y] is fixed, settles the node by the scheduler's answer
    for that map, before the node LP; its [Lp_solution] call refutes or
    schedules the map of an LP point whose [y] are integral but not all
    fixed. A call whose scheduler run gave up
    answers {!Ilp.Branch_bound.Hook_gave_up} with
    ["map P1,P2,… (budget B backtracks)"]: the partition of each task
    and the backtrack budget (300,000, or 5,000,000 once every [y] is
    fixed). *)

val solve :
  ?strategy:Branching.strategy ->
  ?time_limit:float ->
  ?scheduler_completion:bool ->
  ?presolve:bool ->
  ?lint:bool ->
  ?jobs:int ->
  ?deterministic:bool ->
  ?certify:Ilp.Branch_bound.certify_level ->
  ?tracer:Ilp.Trace.t ->
  ?metrics:Ilp.Metrics.t ->
  Vars.t ->
  report
(** Defaults: paper branching, no time limit,
    [scheduler_completion = true]. Every extracted solution, optimal or
    incumbent, is validated by {!Solution.validate}; one that fails
    raises [Failure].

    [lint] (default off) runs {!Ilp.Analyze.analyze} and
    {!Audit.audit_vars} on the model before solving and raises
    [Failure] listing every error-level finding — fail fast instead of
    branching on a broken model. The audit reads the
    {!Formulation.options} the model was built with from
    {!Vars.t}[.options].

    [scheduler_completion] installs the exact-scheduler node hook: once
    a node's partitioning variables are all integral, the design is
    completed (or refuted) combinatorially instead of by further LP
    branching. It never changes optimality — eq. 14's objective depends
    only on the partition map — but typically collapses the search tree
    by orders of magnitude; ablated in the benchmarks. The hook's
    scheduler honours [time_limit]: it checks the clock every 4096
    backtracks and gives up once the limit, counted from the start of
    [solve], has passed (see {!Enumerate.schedule_for_partition}); each
    give-up is counted in [stats.metrics] ([C_hook_give_ups]).

    [presolve] (default on) runs {!Ilp.Presolve} before branch and
    bound: rows drop and bounds tighten while variable indices — and the
    reported model sizes — stay those of the paper's formulation.

    [jobs] (default [1]) runs the branch-and-bound tree search on that
    many worker domains, each with its own simplex engine; [jobs = 1]
    is the exact sequential search. [deterministic] (with [jobs > 1])
    trades pruning strength for run-to-run reproducible node counts.
    The scheduler-completion hook is safe under parallel search: node
    hooks are serialized by the solver, so its internal memo table is
    never accessed concurrently. See {!Ilp.Branch_bound.options}.

    Every node of the search propagates its bounds and fixes
    variables by reduced cost ({!Ilp.Branch_bound}, and the "Node
    deductions" section of [docs/SOLVER.md]); the paper's [lp_solve]
    search did neither, so node counts are not the paper's.

    [certify] (default {!Ilp.Branch_bound.Cert_off}) turns on exact
    rational certification of LP verdicts inside the search; the
    counters land in [stats.metrics] and the root certificate in
    [stats.certification]. Root
    certificates are reported in the {e original} formulation's row
    coordinates: reduced-model rows are translated back through the
    presolve row map, and when presolve itself proves infeasibility a
    fresh exact Farkas certificate of the original model's LP
    relaxation is computed in its place. See docs/VERIFICATION.md.

    [tracer] (default {!Ilp.Trace.disabled}) records structured solver
    events — presolve and search phase spans, node open/close, LP
    solves, incumbents — for export through {!Ilp.Trace_export}; see
    [docs/OBSERVABILITY.md].

    [metrics] (default: a private registry) is the {!Ilp.Metrics}
    registry the solve counts into — nodes, pivots, factorizations,
    pool traffic, dual bound and incumbent gauges — for the sampling
    exporters in {!Ilp.Metrics_export}; same chapter of
    [docs/OBSERVABILITY.md]. *)

val pp_outcome : Format.formatter -> outcome -> unit
