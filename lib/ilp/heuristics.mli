(** Primal heuristics for the 0-1 branch and bound.

    Two standard incumbent finders, run by {!Branch_bound} at the root
    and on a configurable node cadence (see [options.heuristics]):

    - {!round_and_repair}: round the node relaxation's integer
      variables to the nearest integer, then greedily repair violated
      rows by flipping 0-1 variables (cheapest objective damage per
      unit of violation removed). Pure arithmetic — no LP solves.
    - {!dive}: depth-bounded fractional diving — repeatedly fix the
      most fractional variable to its nearest integer and re-solve the
      LP with the dual simplex, on a {b private} engine so the search
      engine's warm basis is never disturbed.

    Both return candidate points only; the caller re-checks feasibility
    and objective improvement before installing an incumbent (the
    {!Branch_bound} acceptance path does exactly that), so a heuristic
    bug can waste time but never corrupt the search.

    A {!t} owns at most one lazily-created simplex engine and is bound
    to the domain that first uses it, like every {!Simplex.state}. *)

type t

val create :
  ?trace:Trace.writer ->
  ?metrics:Metrics.shard ->
  Lp.t ->
  t
(** Prepares heuristic state for the model. Cheap: the private simplex
    engine is only built on the first {!dive}. [trace]
    routes the private engine's LP-solve events (default
    {!Trace.null_writer}). [metrics] receives only the heuristic-level
    counters ({!Metrics.C_heur_runs} per {!round_and_repair}/{!dive}
    invocation, {!Metrics.C_heur_incumbents} per candidate returned);
    the private engine's pivots are deliberately {e not} counted, so
    search-wide LP totals stay equal to [Branch_bound.stats]. *)

val round_and_repair :
  t -> ?int_tol:float -> ?max_flips:int -> x:float array -> unit ->
  float array option
(** LP rounding + feasibility repair from the relaxation point [x].
    [Some rx] is an integral point that passed an exact
    {!Feas_check.is_feasible} test; [None] means the repair loop gave
    up ([max_flips] defaults to [2 * rows + 16]). Does not read or
    mutate any solver state. *)

val dive :
  t ->
  lb:float array ->
  ub:float array ->
  x:float array ->
  ?int_tol:float ->
  max_depth:int ->
  cutoff:float ->
  deadline:float ->
  unit ->
  float array option
(** Depth-bounded diving from the node relaxation [x] under the node
    bounds [lb]/[ub] (read-only; the caller may pass live arrays).
    Each level fixes the most fractional integer variable to its
    nearest in-bounds integer and re-optimizes. Stops with [None] when
    the LP goes infeasible, the objective reaches [cutoff] (no better
    incumbent can be below this dive), [max_depth] levels were fixed,
    or [deadline] ({!Mono} absolute time) passes. [Some dx] is an
    integral point of the {e node} relaxation — still re-checked by the
    caller against the original model. *)
