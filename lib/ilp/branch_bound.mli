(** Branch and bound for mixed 0-1 / integer linear programs.

    Drives {!Simplex} over a tree of bound-fixing decisions, depth first
    with the [>= ceil] child (for binaries: [= 1]) explored first — the
    reproduced paper's search order. Every node is evaluated the same
    way: its bounds are applied to the engine as a delta against the
    previous node's path, and its LP is dual re-optimized from its
    parent's optimal basis, which stays dual feasible because dual
    feasibility of a simplex basis does not depend on variable bounds.

    The branching variable choice is pluggable, which is what the
    paper's Section 8 heuristic (branch on [y_tp] in topological
    priority order; then on [u_pk]) requires. *)

type branch_rule = lp_solution:float array -> is_fixed:(int -> bool) -> int option
(** A branching rule receives the node's LP solution (indexed by
    [(var :> int)]) and a predicate telling whether a variable is
    already fixed ([lb = ub]) at this node. It returns the structural
    index of an integer variable to branch on, or [None] to fall back
    to the default most-fractional rule. The variable need not be
    fractional: fixing an integral variable still partitions the search
    space, which lets problem-specific node hooks resolve fully-fixed
    subtrees combinatorially. *)

type hook_result =
  | Hook_none
  | Hook_incumbent of float array
      (** A full feasible assignment to install as an incumbent (it is
          re-verified against the model before acceptance). *)
  | Hook_prune  (** Discard this subtree: no better solution lies below. *)
  | Hook_incumbent_and_prune of float array
  | Hook_gave_up
      (** The hook could not decide within its budget or deadline. Acts
          like [Hook_none], and is counted in
          {!deduction_stats.hook_give_ups}, so a hook that degrades
          never does so silently. *)

type certify_level =
  | Cert_off  (** No exact checking (default). *)
  | Cert_root
      (** Certify the root relaxation only: one exact check validating
          the bound the whole search hangs from. *)
  | Cert_incumbents
      (** [Cert_root] plus every node whose relaxation is integral —
          the LPs whose objectives become incumbent values. *)
  | Cert_all
      (** Every node LP verdict, including infeasible ones (checked as
          Farkas certificates). Expensive; for audits and debugging. *)

type options = {
  max_nodes : int;
  time_limit : float;  (** Wall-clock seconds; [infinity] disables. *)
  branch_rule : branch_rule option;
  integral_objective : bool;
      (** Set when every integer solution has an integral objective
          value; enables the stronger [ceil] pruning cutoff. *)
  int_tol : float;  (** Integrality tolerance (default [1e-6]). *)
  on_incumbent : (float -> float array -> unit) option;
      (** Called on every improving incumbent. *)
  warm_start : bool;
      (** Evaluate nodes with dual re-optimization from the parent's
          optimal basis (default). When the engine is not already on
          that basis — a backtracked sibling, a stolen node — it is
          reinstalled first; a failed install is counted in
          {!Simplex.stats}[.install_fallbacks], logged, and the node is
          solved cold. Disable to solve every node from scratch —
          slower, used as a numerical cross-check. *)
  node_hook :
    (lp_solution:float array -> is_fixed:(int -> bool) -> hook_result) option;
      (** Problem-specific completion heuristic, called after each
          feasible node relaxation. [is_fixed j] reports whether
          structural variable [j] is pinned ([lb = ub]) at this node —
          a hook must only return [Hook_prune] based on variables that
          are actually fixed, otherwise it would cut off solutions
          still reachable below. *)
  check_model : bool;
      (** Run {!Analyze.assert_clean} on the model before searching
          (default off): {!solve} then raises [Invalid_argument] instead
          of silently branching on a structurally broken model. *)
  jobs : int;
      (** Worker domains for the tree search (default [1]). [jobs = 1]
          is the sequential search: reproducible node counts and visit
          order. With [jobs > 1] the search first seeds a
          frontier sequentially, then spawns [jobs] domains, each with
          its {e own} {!Simplex} engine (ownership is enforced, see
          {!Simplex}), running depth-first on a private deque and
          sharing work through a common pool. The incumbent is shared:
          a lock-free best objective for pruning plus a locked solution
          slot. [max_nodes] becomes a soft target (workers may
          overshoot by up to one node each). {!solve} raises
          [Invalid_argument] when [jobs < 1]. *)
  deterministic : bool;
      (** Only meaningful with [jobs > 1]: deal the seed frontier
          round-robin to the workers, disable work stealing, and prune
          each worker against its {e locally} discovered incumbents
          only. Runs that finish without hitting a limit then visit a
          machine-independent, reproducible set of nodes
          ([stats.nodes] is stable run to run) at the price of weaker
          pruning. The reported optimum is unchanged either way; only
          which of several equally-optimal solutions is returned may
          differ. The node deductions preserve this contract: root
          reduced-cost re-fixing runs only before any domain is
          spawned, and node reduced-cost fixing and propagation read
          nothing but the node's own LP and bounds and the context's
          own cutoff. Default [false]. *)
  rc_fixing : bool;
      (** Reduced-cost fixing (default off). After every certified node
          LP solve, any unfixed 0-1 variable whose reduced cost alone
          would push the objective past the incumbent cutoff if the
          variable left its bound is fixed at that bound for the whole
          subtree. The root duals are kept so an improving incumbent
          re-fixes at the root as well ({!stats} row
          [deductions.rc_fixed]); root re-fixing happens on the
          sequential driver (or the seeding phase under [jobs > 1]). *)
  propagate : bool;
      (** Per-node domain propagation (default off). Runs the
          activity-based bound-tightening kernel of {!Propagate}
          incrementally at every node, seeded with the bound changes
          that created the node, before any LP pivot. A propagation
          conflict prunes the node without touching the LP; deduced
          fixings are inherited by the node's children. *)
  certify_level : certify_level;
      (** Exact a-posteriori certification of node LP verdicts with
          {!Certify} (default {!Cert_off}). Each selected node's final
          basis is re-solved in rational arithmetic immediately after
          its LP solve, on the worker's own engine; verdicts are
          counted in {!stats.certification}, emitted as
          {!Trace.Cert_check} events, and a {!Certify.Refuted} verdict
          is logged as a warning (the search continues — certification
          observes, it does not steer). The root certificate itself is
          kept in {!certification_stats.root_certificate}. Note the
          certificates apply to the model the search actually solves:
          after presolve, row indices are in that
          model's coordinates. *)
  tracer : Trace.t;
      (** Structured tracing (default {!Trace.disabled}, costing one
          branch per instrumentation site). When enabled, the search
          records node open/close events (with parent ids and close
          reasons), LP solves, LU (re)factorizations, propagation runs
          and incumbents into per-domain single-writer
          buffers: the sequential driver and the parallel seeding phase
          write to the tracer's ["main"] track, and each worker domain
          registers its own ["worker i"] track from inside its domain.
          Collect with {!Trace.collect} after {!solve} returns and
          export through {!Trace_export}. *)
  metrics : Metrics.t option;
      (** A registry to count into (default [None]: the solve uses a
          private one). Every tally of the search — nodes, incumbents,
          LP work, deductions, hook calls, certification, pool traffic
          — is written once, into the per-domain single-writer shard of
          the search context or simplex engine that did the work: the
          sequential driver, the seeding phase and each worker (from
          inside its domain) own one context and one engine each. The
          solve also publishes gauges (open nodes, pool depth, best
          dual bound, incumbent objective, worker count) for a snapshot
          poller. {!stats} is a view of one snapshot of the solve's
          shards taken after the workers joined, so with a registry of
          its own the caller's final {!Metrics.snapshot} equals it
          exactly. A caller's registry also drives the sampled part of
          {!stats.bound_timeline} for [jobs > 1]. *)
}

val default_options : options
(** Most-fractional branching, warm starts, no limits. *)

type outcome =
  | Optimal of { obj : float; x : float array }
      (** Proven optimal solution (minimization-oriented objective;
          multiply by {!Lp.obj_sign} for the user's orientation). *)
  | Infeasible
  | Unbounded
  | Limit_reached of { best : (float * float array) option; bound : float }
      (** Node or time limit hit. [best] is the incumbent so far;
          [bound] is a valid global lower bound. *)

type worker_stats = {
  w_nodes : int;  (** Nodes this worker evaluated. *)
  w_incumbents : int;  (** Improving incumbents this worker installed. *)
  w_steals : int;  (** Nodes acquired from the shared pool. *)
  w_handoffs : int;  (** Nodes this worker donated to the pool. *)
  w_idle : float;  (** Seconds spent blocked waiting for work. *)
  w_pivots : int;  (** Simplex pivots on this worker's engine. *)
}
(** A view of the worker's context and engine shards. *)

val pp_worker_stats : Format.formatter -> worker_stats -> unit
(** One-line [key=value] rendering. *)

type deduction_stats = {
  rc_fixed : int;  (** Variables fixed by reduced cost (nodes + root). *)
  prop_fixings : int;  (** Bound fixings deduced by node propagation. *)
  prop_prunes : int;  (** Nodes pruned by propagation before any pivot. *)
  prop_seconds : float;
      (** Wall-clock seconds spent in node propagation, summed over the
          search contexts (the sequential driver, or the seeding phase
          plus every worker when [jobs > 1]). *)
  hook_calls : int;
      (** Calls of [options.node_hook], summed over the search contexts
          like [prop_seconds]. *)
  hook_give_ups : int;  (** Of those, calls that returned {!Hook_gave_up}. *)
  hook_seconds : float;
      (** Wall-clock seconds spent inside [options.node_hook], timed
          under the lock that serializes hook calls (waiting for the
          lock does not count) and summed like [prop_seconds]. *)
}

val empty_deductions : deduction_stats

val pp_deductions : Format.formatter -> deduction_stats -> unit
(** One-line [key=value] rendering. *)

type certification_stats = {
  cert_checked : int;  (** Node LP verdicts certified exactly. *)
  cert_certified : int;
  cert_refuted : int;
      (** Exact arithmetic contradicted the float verdict — a solver
          bug or severe numerical corruption. Logged as warnings. *)
  cert_uncertifiable : int;
      (** Nothing provable either way (singular basis in rationals,
          dual gap above tolerance, missing witness). *)
  cert_seconds : float;
      (** Wall time spent in the exact checks (snapshot and
          {!Certify.check}), summed over the search contexts. *)
  root_certificate : Certify.t option;
      (** The root relaxation's certificate, whenever the level
          includes the root and the root LP was solved. *)
}

val empty_certification : certification_stats

val single_check : Certify.t -> seconds:float -> certification_stats
(** The statistics of one exact check taken outside the search (e.g.
    of a model presolve proved infeasible), counted like the search
    counts its own. *)

val pp_certification : Format.formatter -> certification_stats -> unit
(** One-line [key=value] rendering ([time=] in seconds) plus the root
    verdict when kept. *)

type stats = {
  nodes : int;  (** LP relaxations solved. *)
  incumbents : int;  (** Number of improving integer solutions found. *)
  pivots : int;  (** Total simplex pivots. *)
  max_depth : int;
  elapsed : float;  (** Wall-clock seconds. *)
  root_obj : float;  (** Root LP relaxation value ([nan] if infeasible). *)
  lp_stats : Simplex.stats;
      (** LP-engine counters accumulated over every node relaxation
          (factorizations, eta updates, refactorization triggers,
          FTRAN/BTRAN time); summed across the seeding engine and every
          worker engine when [jobs > 1], where [fill] is the largest
          engine's. *)
  workers : worker_stats array;
      (** One row per worker domain when [jobs > 1] (all-zero rows when
          the search already finished during sequential seeding); empty
          for [jobs = 1]. *)
  deductions : deduction_stats;
      (** Node-deduction counters (all zero when the corresponding
          options are off) and the node hook's calls and time. *)
  certification : certification_stats;
      (** Exact-certification counters (all zero, no certificate, when
          [certify_level = Cert_off]). *)
  node_lps : Metrics.node_lp_row array;
      (** The per-node LP distribution: for all nodes, then for each
          close reason that occurred, the node count, pivot sum,
          nearest-rank p50/p90/max of per-node pivots and LP seconds
          ({!Metrics.node_lp_table}). A node's pivots and seconds cover
          its LP solves only (a pivot-limit restart included); a node
          pruned by propagation records zero. *)
  timeline : (float * float * int * Trace.incumbent_source) array;
      (** The incumbent timeline: one [(elapsed seconds, objective,
          node id, source)] entry per improving incumbent, in
          installation order. The last entry's objective equals the
          final incumbent objective; [source] says whether the search
          or the completion hook found it. *)
  bound_timeline : (float * float) array;
      (** The dual-bound timeline, mirroring [timeline]: one
          [(elapsed seconds, bound)] entry per recorded improvement of
          the best proven global lower bound, oldest first and strictly
          increasing in both fields. The last entry is authoritative —
          it is the outcome's bound (the objective itself on
          {!Optimal}), so the final gap is reconstructible from the two
          timelines. Interior entries are sampled: every 32 nodes on
          the sequential driver; from the metrics snapshot poller when
          [jobs > 1] (without metrics a parallel timeline holds only
          the final entry). Empty when the search proves infeasibility
          or unboundedness. *)
}

val empty_stats : stats
(** All-zero statistics ([root_obj = nan]), for reporting searches that
    never ran (e.g. presolve proved infeasibility). *)

val solve : ?options:options -> Lp.t -> outcome * stats
(** Solves the mixed-integer model. The [Lp.t] is not mutated. *)

val fractionality : float -> float
(** Distance of a value to the nearest integer, in [0, 0.5]. *)

val pp_outcome : Format.formatter -> outcome -> unit
