(** Activity-based bound propagation over a fixed row set.

    The deduction kernel shared by {!Presolve} (run to a fixpoint over
    every row at the root) and {!Branch_bound} (run incrementally at
    each node, seeded with the variables whose bounds the branching
    decision just changed). A {!t} holds the rows, the row->variable
    adjacency, and the integrality markers — all immutable after
    {!of_lp}, so one value is safely shared read-only across worker
    domains. The mutable bound arrays belong to the caller.

    The per-row deduction is the classic activity argument: with
    [lo <= a.x <= hi] the row's minimum/maximum activity under current
    bounds, a [<=] row whose [lo] exceeds the right-hand side is a
    conflict, and the residual activity of the other terms implies a
    bound on each variable, rounded inward for integer variables. *)

type row = {
  idx : int array;  (** Structural variable indices. *)
  coef : float array;
  sense : Lp.sense;
  rhs : float;
  name : string;  (** For conflict reporting. *)
}

type t

val of_lp : Lp.t -> t
(** Captures every row of the model (in row order, so conflict names
    match {!Lp.row_name}) and builds the variable->rows adjacency
    once. *)

val num_rows : t -> int

val row : t -> int -> row

val activity : row -> lb:float array -> ub:float array -> float * float
(** Minimum and maximum activity of a row under the given bounds (the
    kernel {!Presolve} uses for redundancy/infeasibility checks). *)

val step :
  t -> int -> lb:float array -> ub:float array -> on_change:(int -> unit) -> unit
(** One deduction pass over row [i]: raises on conflict (caught by
    {!run}; {!Presolve} wraps it likewise), otherwise tightens [lb]/[ub]
    in place and reports each moved variable to [on_change]. The
    activity range is evaluated once at entry, so deductions within one
    step match one historical presolve pass over that row exactly.

    @raise Empty when a variable's domain closes.
    @raise Conflict_row on an infeasible row. *)

exception Empty of int
exception Conflict_row of string

type deductions = {
  fixes : (int * float * float) list;
      (** Final bounds of every variable that moved, in first-moved
          order — suitable for appending to a branch-and-bound node's
          fix list. *)
  steps : int;  (** Row evaluations performed. *)
}

type outcome =
  | Ok of deductions
  | Empty_domain of int  (** Variable whose domain became empty. *)
  | Conflict of string  (** Name of the violated row. *)

val run :
  t ->
  lb:float array ->
  ub:float array ->
  ?seeds:int list ->
  ?max_steps:int ->
  ?trace:Trace.writer ->
  ?metrics:Metrics.shard ->
  unit ->
  outcome
(** Worklist propagation to a fixpoint, mutating [lb]/[ub] in place.
    [seeds] are variable indices whose bounds just changed: only rows
    over them are enqueued initially, and tightening a variable enqueues
    its rows — branch decisions cascade without touching unrelated rows.
    When [seeds] is omitted every row is enqueued (the presolve mode).
    [max_steps] (default [max 256 (64 * num_rows)]) bounds total row
    evaluations; the bounds reached when the budget runs out are still
    valid, just not necessarily a fixpoint.

    When [trace] is an active writer, one {!Trace.Prop_run} event is
    emitted per call — including conflicting runs, where [fixings] is
    reported as [0] (the partial tightenings are discarded by the
    caller anyway). When a [metrics] shard is given every call bumps
    {!Metrics.C_prop_runs} and successful runs add their fixing count
    to {!Metrics.C_prop_fixings}. *)
