(** Bounded-variable revised simplex solver for linear programs.

    Solves the LP relaxation of an {!Lp.t} (integrality markers are
    ignored). The implementation is a revised simplex with one basis
    representation, and its verdicts are checked exactly by {!Certify}
    rather than against a second floating-point engine:

    - the constraint matrix is kept in compressed sparse column form
      ({!Sparse.Csc}) and the basis as a Markowitz-pivoted LU
      factorization with a product-form eta file ({!Lu}), refactorized
      when the eta file grows past a bound or a residual check fails;
    - variable bounds are handled implicitly (no explicit bound rows),
      which keeps the row count equal to the number of constraints;
    - a cold solve ({!primal}) starts from the slack basis with every
      structural column at the bound its cost sign asks for, which is
      dual feasible on boxed models, and runs the dual loop below;
      primal phase I (one-signed artificial variables minimizing total
      infeasibility) runs only for models without that start and as a
      counted fallback;
    - devex reference-weight pricing over incrementally maintained
      reduced costs: each basis change updates the whole reduced-cost
      row from one hyper-sparse [btran] and one CSR pass. An optimal or
      unbounded verdict is only declared after a from-scratch
      recomputation confirms it, and pricing switches to Bland's rule
      under degeneracy (anti-cycling);
    - a dual-simplex loop serves cold solves and the warm starts after
      bound changes that {!Branch_bound} uses between nodes. It picks
      the leaving row by dual devex weights and uses a bound-flipping
      ratio test with a Harris pass over ties at the final ratio,
      batching bound flips of boxed candidates into one solve instead
      of pivoting through them (see docs/PERFORMANCE.md).

    A {!state} owns all solver storage and is {b bound to the domain
    that created it}: the engine is stamped with the creating domain's
    id and {!primal}, {!dual_reopt} and {!set_var_bounds} raise
    [Invalid_argument] from any other domain (the {!Lu} kernel carries
    the same stamp on its per-pivot paths). Parallel branch and bound
    creates one engine per worker domain. Bounds of structural
    variables may be changed between solves ({!set_var_bounds}); the
    constraint matrix, senses and right-hand sides are fixed at
    {!create} time. *)

type status =
  | Optimal
  | Infeasible
  | Unbounded
  | Iter_limit  (** Gave up; solution content is best-effort. *)

type farkas = {
  ray : float array;
      (** Dual ray [y] of length {!num_rows} witnessing primal
          infeasibility: [y.b > max] over the variable box of [y.Ax]
          (columns include slacks). Floating point — {!Certify} re-derives
          and checks the certificate exactly from a {!snapshot}. *)
  row : int;
      (** The constraint row the ray concentrates on — the row whose
          slack (or phase-I artificial) was out of bounds when the
          verdict fired, for "why is this infeasible" reporting. *)
}

type result = {
  status : status;
  obj : float;
      (** Minimization-oriented objective value at [x]. For {!Iter_limit}
          this is the (possibly meaningless) objective of the last basic
          solution — check {!primal_res}/{!dual_res} before trusting it.
          [nan] for {!Infeasible}. *)
  x : float array;  (** Structural variable values, indexed by [(var :> int)]. *)
  iterations : int;  (** Simplex pivots performed by this call. *)
  primal_res : float;
      (** Inf-norm primal residual of the returned solution: worst row
          violation plus worst bound violation of a basic variable,
          measured against the raw constraint matrix (so representation
          drift cannot hide). [0.] up to roundoff at a true optimum. *)
  dual_res : float;
      (** Most favorable pricing score over nonbasic columns at the
          phase-II costs; [0.] means dual feasible. Together with a tiny
          {!primal_res} this certifies [obj] is near the LP optimum even
          when [status = Iter_limit] (weak duality). *)
  dj : float array;
      (** Reduced costs of the structural columns at the phase-II costs
          (length {!num_structural}; [0.] for basic columns). At a dual
          feasible point a nonbasic-at-lower column has [dj >= 0] and a
          nonbasic-at-upper column [dj <= 0] (up to tolerance), which is
          what reduced-cost fixing in {!Branch_bound} consumes. Empty
          when the duals could not be computed ({!dual_res} infinite). *)
  farkas : farkas option;
      (** Present exactly when [status = Infeasible] was reached through
          a basis (phase-I optimum with positive infeasibility, or a
          dual-simplex dead end); [None] for every other status and for
          the rare infeasible verdicts reached without usable duals. *)
}

type stats = {
  factorizations : int;  (** Fresh basis factorizations / re-inversions. *)
  fill : int;  (** Stored L+U entries of the most recent factorization. *)
  etas : int;  (** Cumulative eta-file updates appended. *)
  refactor_eta : int;  (** Refactorizations triggered by eta-file length. *)
  refactor_numeric : int;
      (** Refactorizations triggered by tiny pivots or certificate
          verification. *)
  refactor_residual : int;
      (** Refactorizations triggered by the basic-solution residual
          check. *)
  factor_time_s : float;
      (** Wall time spent in fresh basis factorizations /
          re-inversions — the cost [factorizations] counts. Together
          with [ftran_seconds]/[btran_seconds] this makes the
          factor-vs-solve split visible without a trace. *)
  ftran_seconds : float;  (** Wall time spent in forward solves. *)
  btran_seconds : float;  (** Wall time spent in transposed solves. *)
  update_seconds : float;
      (** Wall time spent appending basis-exchange updates to the eta
          file. *)
  pivots : int;  (** Cumulative basis-changing simplex pivots. *)
  bound_flips : int;
      (** Cumulative bound flips applied without a basis change: ratio
          tests that sent the entering column to its opposite bound,
          and the candidates a bound-flipping dual ratio test passed
          through. Not included in [pivots]. *)
  dual_stalls : int;
      (** Dual loops, cold ({!primal}) or warm ({!dual_reopt}), that hit
          their [1000 + 30 m] iteration cap and fell back to primal
          phase I/II. *)
  primal_restarts : int;
      (** Dual solves, cold or warm, that hit a singular basis (at the
          start, in the dual loop or in the primal clean-up) and fell
          back to primal phase I/II. *)
  cold_primal : int;
      (** Solves that ran primal phase I/II: cold solves of models whose
          slack basis is not dual feasible (a column unbounded on its
          cost side), plus every fallback counted in [dual_stalls] and
          [primal_restarts]. [0] on the 0-1 relaxations of this
          project. *)
  singular_restarts : int;
      (** Primal phase I/II runs that hit a singular basis and restarted
          from the slack basis (a second hit gives up with
          {!Iter_limit}). *)
  basis_installs : int;  (** {!install_basis} calls. *)
  install_fallbacks : int;
      (** {!install_basis} calls that returned [false], leaving the
          caller to solve cold. *)
  minor_words : float;
      (** [Gc.quick_stat] minor-heap words allocated inside
          {!primal}/{!dual_reopt} calls on this engine — the hot path's
          allocation budget, so regressions show up in [--stats]
          without a profiler. *)
  major_words : float;  (** Major-heap words allocated, same scope. *)
  compactions : int;  (** Heap compactions observed, same scope. *)
}

val stats_of_snapshot : ?fill:int -> Metrics.snapshot -> stats
(** The engine counters of a {!Metrics} snapshot: every field but
    [fill] (default [0]), which is a reading of a factorization, not a
    tally, and is passed in. [factor_time_s] is the
    [H_factor_seconds] histogram's sum. *)

val pp_stats : Format.formatter -> stats -> unit
(** One-line [key=value] rendering of the counters. *)

type state

val create : ?shard:Metrics.shard -> Lp.t -> state
(** Builds solver storage for the model. The engine counts every
    tally of {!stats} into [shard] for its whole life: per-pivot
    [C_lp_pivots] and [C_lp_bound_flips], per-solve [C_lp_solves] and
    the LP-time histogram, the fallbacks,
    hyper-sparse FTRAN/BTRAN hits, factorizations with the factor-time
    histogram, refactorizations by trigger, eta updates, basis
    installs, solve times and allocation. A search context passes its
    own shard; without one the engine makes a private, unregistered
    shard.

    The engine emits its events through the shard's {!Metrics.writer}:
    one {!Trace.Lp_solve} per {!primal}/{!dual_reopt} call (pivots and
    flips measured as the {!total_pivots}/{!bound_flips} deltas, so
    summed event counters equal the engine counters exactly — internal
    fallbacks are folded into the enclosing event), plus
    {!Trace.Lu_factor}/{!Trace.Lu_refactor} events from the basis
    kernel. With {!Trace.null_writer} each instrumentation site costs a
    single branch.

    Later mutations of the [Lp.t] are not observed except through
    {!set_var_bounds}. The returned engine is owned by the calling
    domain (see the module preamble), which must also own [shard]. *)

val stats : state -> stats
(** Cumulative statistics across all solves on this state: a view of
    its shard ({!stats_of_snapshot} of [Metrics.merge [shard]]). *)

val fill : state -> int
(** Stored L+U entries of the most recent factorization. *)

val num_rows : state -> int

val num_structural : state -> int

val set_var_bounds : state -> int -> lb:float -> ub:float -> unit
(** [set_var_bounds st j ~lb ~ub] overrides the bounds of structural
    variable [j]. Takes effect at the next {!primal} or {!dual_reopt}.
    Raises [Invalid_argument] if [j] is out of range or [lb > ub]. *)

val get_var_bounds : state -> int -> float * float

val primal : ?max_iters:int -> state -> result
(** Cold solve from a fresh slack basis, whatever the engine's current
    basis. When every structural column has a finite bound on the side
    its cost sign asks for (lower for [c_j > 0], upper for [c_j < 0],
    either for [c_j = 0]), each column starts at that bound: the slack
    basis is then dual feasible, and the bound-flipping dual loop of
    {!dual_reopt} plus its primal clean-up solves the LP. Otherwise —
    and as the fallback after a dual stall or a singular basis — it
    runs primal phase I/II, counted in {!stats}[.cold_primal]. An
    infeasible verdict of the dual start carries an
    {!Inf_dual_row} certificate. Always safe to call. *)

val dual_reopt : ?max_iters:int -> state -> result
(** Re-optimizes from the current basis after bound changes. Intended
    for warm starts: typically needs few pivots. Internally restores
    primal feasibility with a dual-simplex loop, then runs a primal
    clean-up pass to guarantee optimality; falls back to primal phase
    I/II from the slack basis when the dual loop stalls or the basis
    goes singular. Calling it on a fresh state is valid. *)

val solve : ?max_iters:int -> Lp.t -> result
(** [solve lp] is [primal (create lp)]: one-shot cold solve — dual
    simplex from the slack basis when every column is boxed on its cost
    side, else phase I/II. *)

(** {1 Warm-start basis shipping} — consumed by {!Branch_bound}. *)

type basis
(** A compact description of a basis: the slot->column header plus the
    status of every column — no factorization, no bounds, no variable
    values. A few kilobytes on the paper models, immutable after
    {!export_basis} and safe to share across domains, so branch and
    bound can attach its parent's basis to every node and whichever
    search context pops the node warm-starts from it. *)

val export_basis : state -> basis
(** Captures the engine's current basis header. Unlike {!snapshot} this
    never refactorizes — it is two array copies — so it is cheap enough
    for the branch-and-bound hot path after every node solve. *)

val install_basis : state -> basis -> bool
(** [install_basis st b] replaces the engine's basis with [b], rebuilds
    the column->slot map, re-closes the artificials and refactorizes.
    [true] means the basis factored cleanly: the engine is ready for
    {!dual_reopt} against its current bounds. [false] means [b] came
    from a different model shape, carries a corrupt header (duplicate
    basic column), or is numerically singular; the engine's basis is
    then unspecified and the caller must recover with a cold {!primal}
    (which resets to the slack basis — {!dual_reopt} also survives,
    through its internal primal fallback). Every call is counted in
    {!stats}[.basis_installs], every [false] in
    [install_fallbacks]. Owner-only, like every other entry point. *)

(** {1 Exact-certification support} — consumed by {!Certify}. *)

type vstat =
  | Basic
  | At_lower
  | At_upper
  | Free_zero  (** Free column held at value 0. *)

type infeasibility =
  | Inf_phase1 of float array
      (** Phase I ended with positive total infeasibility; the payload
          is the phase-I cost vector (±1 on the artificials that
          opened), from which the exact dual ray is re-derived as
          [B^-T c1_B]. Only a solve that ran phase I (see
          {!stats}[.cold_primal]) ends here; a cold solve from the dual
          start ends in {!Inf_dual_row}. *)
  | Inf_dual_row of { row : int; above : bool }
      (** Dual simplex (a warm {!dual_reopt} or a cold {!primal} from
          the dual start) found basic slot [row] out of bounds ([above]
          its upper or below its lower bound) with no eligible entering
          column; the exact ray is [±(B^-T e_row)]. *)

type snapshot = {
  s_m : int;  (** Rows. *)
  s_nstruct : int;  (** Structural columns. *)
  s_mat : Sparse.Csc.mat;
      (** All columns, shared with the engine — immutable after
          {!create}: the [s_nstruct] structural columns, then the slack
          of each row [i] (column [s_nstruct + i]) and its artificial
          (column [s_nstruct + s_m + i]). Slack and artificial columns
          are both the unit vector of their row. *)
  s_basis : int array;  (** Slot -> basic column (copy). *)
  s_stat : vstat array;  (** Status of every column (copy). *)
  s_lb : float array;  (** Lower bounds, all columns (copy). *)
  s_ub : float array;
  s_rhs : float array;
  s_cost : float array;  (** Phase-II minimization costs (copy). *)
  s_infeasibility : infeasibility option;
      (** Set when the engine's last verdict was {!Infeasible}. *)
}

val snapshot : state -> snapshot
(** Captures the engine's current basis for exact a-posteriori
    verification. Call it immediately after the solve whose result is
    being certified — later solves or bound changes move the basis.
    It copies arrays only and leaves the engine (its factorization
    included) as it was, so taking a snapshot never changes a later
    solve. Owner-only, like every other entry point. *)

val total_pivots : state -> int
(** Cumulative basis-changing pivot count across all solves on this
    state (bound flips are counted separately, see {!bound_flips}). *)

val bound_flips : state -> int
(** Cumulative bound flips performed without a basis change. *)

val pp_status : Format.formatter -> status -> unit
