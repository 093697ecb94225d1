(** Branch and bound for mixed 0-1 / integer linear programs.

    Drives {!Simplex} over a tree of bound-fixing decisions, depth first
    with the [>= ceil] child (for binaries: [= 1]) explored first — the
    reproduced paper's search order. Every node is evaluated the same
    way: its bounds are applied to the engine as a delta against the
    previous node's path, and its LP is dual re-optimized from its
    parent's optimal basis, which stays dual feasible because dual
    feasibility of a simplex basis does not depend on variable bounds.

    Every node also runs two deductions, counted in {!deduction_stats}:
    - {e domain propagation}, before any LP pivot: the activity-based
      bound tightening of {!Propagate}, seeded with the bound changes
      that created the node (every row at the root). A conflict prunes
      the node without touching the LP; deduced fixings are inherited
      by the node's children;
    - {e reduced-cost fixing}, after a node LP optimum once an
      incumbent exists: an unfixed 0-1 variable whose reduced cost
      alone would push the objective past the cutoff if it left its
      bound is fixed there for the whole subtree. The root duals are
      kept, so each improving incumbent re-fixes the root bounds too;
      that happens in the seeding phase (the whole search at
      [jobs = 1]).

    A node is pruned when its bound comes within [1e-6] of the
    incumbent. When the model says every solution's objective is an
    integer (each variable with a nonzero objective coefficient is
    integer, and that coefficient is integral), it is pruned once it
    cannot beat the incumbent by a whole unit.

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

(** Where {!options.node_hook} is called from. Each node gets at most
    two calls, on the same bounds: [Bounds] first, then, unless that
    call pruned, [Lp_solution] after a feasible node LP. The [Bounds]
    call comes before the node LP, so a node it prunes closes without
    any LP solve; only at a node whose LP verdict is certified (the
    root under [Cert_root] and [Cert_incumbents], every node under
    [Cert_all]) does it come after a feasible LP, so that the LP is
    solved and checked first. *)
type hook_point =
  | Bounds of float array
      (** The node's lower bounds (indexed like an LP solution). Only
          the entries of fixed variables mean anything here: they are
          the values every solution below the node takes. *)
  | Lp_solution of float array  (** The node's feasible LP solution. *)

type hook_result =
  | Hook_none
  | Hook_incumbent of float array
      (** A full feasible assignment to install as an incumbent (it is
          re-verified against the model before acceptance). *)
  | Hook_prune  (** Discard this subtree: no better solution lies below. *)
  | Hook_incumbent_and_prune of float array
  | Hook_gave_up of string
      (** The hook could not decide within its budget or deadline; the
          string says what it gave up on. Acts like [Hook_none], is
          counted in {!deduction_stats.hook_give_ups}, logged at info
          level and traced as a {!Trace.Hook_give_up} event, so a hook
          that degrades never does so silently. *)

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
  node_hook : (hook_point -> is_fixed:(int -> bool) -> hook_result) option;
      (** Problem-specific completion heuristic, called at the two
          points of {!hook_point}. [is_fixed j] reports whether
          structural variable [j] is pinned ([lb = ub]) at this node —
          a hook must only return [Hook_prune] based on variables that
          are actually fixed, otherwise it would cut off solutions
          still reachable below. Whatever the node's fixed variables
          alone decide belongs in the [Bounds] call, which can spare
          the node its LP; the [Lp_solution] call sees the same bounds
          and should only do what needs the LP point. *)
  jobs : int;
      (** Worker domains for the tree search (default [1]). The search
          starts with a seeding phase on the caller's domain; at
          [jobs = 1] that phase runs to the end and is the whole
          search, with reproducible node counts and visit order, and no
          domain is spawned. With [jobs > 1] the seeding phase stops
          once its frontier can feed the crew (4 nodes per worker, or
          after 8 evaluated nodes per worker), then [jobs] domains are
          spawned, each with
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
  certify_level : certify_level;
      (** Exact a-posteriori certification of node LP verdicts with
          {!Certify} (default {!Cert_off}). Each selected node's final
          basis is re-solved in rational arithmetic immediately after
          its LP solve, on the worker's own engine; verdicts are
          counted in {!stats.certification}, emitted as
          {!Trace.Cert_check} events, and a {!Certify.Refuted} verdict
          is logged as a warning (the search continues). Certification
          leaves the engine untouched, but a selected node solves its
          LP before the [node_hook] may settle it on its bounds, so
          the pivots and close reasons of those nodes can differ from
          an unchecked search's. The root certificate itself is
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
          buffers: the seeding phase writes to the tracer's ["main"]
          track, inside a ["search"] span at [jobs = 1] and a ["seed"]
          span otherwise, and each worker domain registers its own
          ["worker i"] track from inside its domain.
          Collect with {!Trace.collect} after {!solve} returns and
          export through {!Trace_export}. *)
  metrics : Metrics.t option;
      (** A registry to count into (default [None]: the solve uses a
          private one). Every tally of the search — nodes, incumbents,
          LP work, deductions, hook calls, certification, pool traffic
          — is written once, into the per-domain single-writer shard of
          the search context that did the work: the seeding phase and
          each worker (from inside its domain) own one context each,
          and the context's simplex engine, LU kernel and propagation
          runs count into its shard and emit through the trace writer
          the shard carries. The solve also publishes gauges (open
          nodes, pool depth, best dual bound, incumbent objective,
          worker count) for a snapshot poller. {!stats} is a view of one snapshot of the solve's
          shards taken after the workers joined, so with a registry of
          its own the caller's final {!Metrics.snapshot} equals it
          exactly. A caller's registry also drives the sampled part of
          {!stats.bound_timeline} in the worker phase. *)
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
      (** Node or time limit hit, or a node the search cannot settle
          soundly: an LP iteration limit without a residual
          certificate, or an integral LP point the incumbent
          feasibility guard rejects. [best] is the incumbent so far;
          [bound] is a valid global lower bound. *)

type worker_stats = {
  w_nodes : int;  (** Nodes this worker evaluated. *)
  w_incumbents : int;  (** Improving incumbents this worker installed. *)
  w_steals : int;  (** Nodes acquired from the shared pool. *)
  w_handoffs : int;  (** Nodes this worker donated to the pool. *)
  w_idle : float;  (** Seconds spent blocked waiting for work. *)
  w_pivots : int;  (** Simplex pivots on this worker's engine. *)
}
(** A view of the worker's context shard. *)

val pp_worker_stats : Format.formatter -> worker_stats -> unit
(** One-line [key=value] rendering. *)

type deduction_stats = {
  rc_fixed : int;  (** Variables fixed by reduced cost (nodes + root). *)
  prop_fixings : int;  (** Bound fixings deduced by node propagation. *)
  prop_prunes : int;  (** Nodes pruned by propagation before any pivot. *)
  prop_seconds : float;
      (** Wall-clock seconds spent in node propagation, summed over the
          search contexts (the seeding phase, plus every worker when
          [jobs > 1]). *)
  hook_calls : int;
      (** Calls of [options.node_hook] at either {!hook_point}, so up
          to two per node, summed over the search contexts like
          [prop_seconds]. *)
  hook_give_ups : int;  (** Of those, calls that returned {!Hook_gave_up}. *)
  hook_pre_lp : int;
      (** Nodes the hook's [Bounds] call closed before their LP was
          solved: nodes that cost no LP. *)
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
  nodes : int;
      (** Nodes evaluated, including those closed without an LP solve
          (by propagation or by the hook's [Bounds] call). *)
  incumbents : int;  (** Number of improving integer solutions found. *)
  pivots : int;  (** Total simplex pivots. *)
  max_depth : int;
  elapsed : float;  (** Wall-clock seconds. *)
  root_obj : float;
      (** Root LP relaxation value ([nan] if infeasible, or when the
          hook settled the root before its LP). *)
  lp_stats : Simplex.stats;
      (** LP-engine counters accumulated over every node relaxation
          (factorizations, eta updates, refactorization triggers,
          FTRAN/BTRAN time); summed across the seeding engine and every
          worker engine when [jobs > 1], where [fill] is the largest
          engine's. *)
  workers : worker_stats array;
      (** One row per worker domain when [jobs > 1] (all-zero rows when
          the search already stopped in the seeding phase); empty for
          [jobs = 1]. *)
  deductions : deduction_stats;
      (** Node-deduction counters and the node hook's calls and
          time. *)
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
          timelines. Interior entries are sampled: every 32 nodes in the
          seeding phase (the whole search at [jobs = 1]), then from the
          metrics snapshot poller in the worker phase (without metrics
          it adds none). Empty when the search proves infeasibility or
          unboundedness. *)
}

val empty_stats : stats
(** All-zero statistics ([root_obj = nan]), for reporting searches that
    never ran (e.g. presolve proved infeasibility). *)

val solve : ?options:options -> Lp.t -> outcome * stats
(** Solves the mixed-integer model. The [Lp.t] is not mutated. *)

val fractionality : float -> float
(** Distance of a value to the nearest integer, in [0, 0.5]. A value
    is integral when its fractionality is at most [1e-6]. *)

val pp_outcome : Format.formatter -> outcome -> unit
