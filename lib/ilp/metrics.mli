(** Typed metrics registry: the solver stack's one counter store.

    Every solver tally lives here and nowhere else. A registry holds
    four kinds of instruments, all identified by closed variant types
    so every consumer (JSONL codec, Prometheus rendering, summary,
    tests) enumerates exactly the same families:

    - {e counters} — monotonically non-decreasing event counts;
    - {e sums} — monotonically non-decreasing float totals (seconds,
      allocated words);
    - {e gauges} — last-value-wins instantaneous readings (best dual
      bound, open-node count, pool depth), stored in atomics because
      any domain may publish them;
    - {e histograms} — log₂-bucketed duration distributions with
      per-shard bucket counts, sum and max (factor time, LP solve
      time).

    Counters, sums and histograms accumulate in per-domain
    single-writer {e shards} (same ownership discipline as {!Trace}'s
    ring buffers: writes are plain array stores, no synchronization on
    the hot path). Shards are always live: each {!Branch_bound} search
    context owns one for its whole life, and the context, its
    {!Simplex} engine, {!Lu} kernel and {!Propagate} runs write every
    tally straight into it, unguarded:

    {[ Metrics.incr sh Metrics.C_lp_pivots ]}

    A shard is its context's one telemetry handle: it also carries the
    context's {!Trace.writer} ({!writer}), through which the same
    layers emit their events.

    [Simplex.stats] and [Branch_bound.stats] are views: they read the
    cells of one snapshot, so they cannot disagree with what a live
    sampler exports. A shard also keeps the per-node LP samples of its
    search context ({!node_lp}).

    {2 Snapshots}

    {!snapshot} merges all registered shards into one immutable view;
    {!merge} does the same for an explicit shard list. Shard cells are
    written without synchronization by their owning domains; word-sized
    reads cannot tear in OCaml, so a mid-run snapshot is a momentary
    (racy but well-defined) view, and a snapshot taken after every
    writing domain has joined is exact. Registered {e polls}
    ({!on_snapshot}) run first on the snapshotting domain, letting
    slow-moving sources (pool depth, trace drop counts) publish
    gauges/shared cells on demand instead of on the hot path. *)

(** {1 Instrument taxonomy} *)

type counter =
  | C_nodes  (** branch-and-bound nodes processed *)
  | C_incumbents  (** improving incumbent installations *)
  | C_lp_solves  (** top-level [Simplex.primal]/[dual_reopt] calls *)
  | C_lp_pivots  (** simplex basis changes *)
  | C_lp_bound_flips  (** bound flips without a basis change *)
  | C_lp_dual_stalls  (** dual loops (cold or warm) that hit the dual cap *)
  | C_lp_primal_restarts
      (** singular-basis restarts inside a dual loop or its clean-up *)
  | C_lp_cold_primal
      (** solves that ran primal phase I/II: models without a dual
          feasible slack start, and every dual stall or singular-basis
          fallback *)
  | C_lp_singular_restarts
      (** primal phase I/II runs that hit a singular basis or a phase-I
          ray and restarted from the slack basis *)
  | C_lp_basis_installs  (** [Simplex.install_basis] calls *)
  | C_lp_install_fallbacks  (** ... that failed, leaving a cold solve *)
  | C_lp_ray_infeasible
      (** dual dead ends after a pivot proved infeasible by their B^-1
          row alone, with no refactorization to confirm them *)
  | C_ftran_solves  (** pattern-capable FTRANs (entering column) *)
  | C_ftran_hyper  (** of those, solved hyper-sparsely *)
  | C_btran_solves  (** pattern-capable BTRANs (dual pricing row) *)
  | C_btran_hyper  (** of those, solved hyper-sparsely *)
  | C_lu_factorizations  (** fresh basis factorizations *)
  | C_lu_refactor_eta  (** refactorizations triggered by the update count *)
  | C_lu_refactor_numeric
      (** refactorizations triggered by a tiny pivot or a suspect verdict *)
  | C_lu_refactor_residual
      (** refactorizations triggered by the basic-solution residual *)
  | C_lu_etas  (** Forrest-Tomlin updates stored *)
  | C_lu_probes  (** candidate entries examined by the LU pivot search *)
  | C_gc_compactions  (** heap compactions inside top-level LP solves *)
  | C_prop_runs  (** per-node propagation runs *)
  | C_prop_fixings  (** variables fixed by propagation *)
  | C_prop_prunes  (** nodes pruned by propagation before any pivot *)
  | C_rc_fixed  (** variables fixed by reduced cost (nodes and root) *)
  | C_hook_calls  (** node-hook calls *)
  | C_hook_give_ups
      (** node-hook calls that gave up undecided (budget or deadline) *)
  | C_hook_pre_lp  (** nodes the node hook closed before their LP *)
  | C_cert_checked  (** node LP verdicts checked exactly *)
  | C_certified_nodes  (** ... certified *)
  | C_cert_refuted  (** ... refuted *)
  | C_cert_uncertifiable  (** ... neither *)
  | C_pool_steals  (** nodes taken from the shared pool *)
  | C_pool_handoffs  (** nodes donated to the shared pool *)
  | C_pool_hungry_polls  (** hungry-pool polls by workers *)
  | C_trace_dropped_events  (** trace ring-buffer drops (polled) *)

type sum =
  | S_ftran_seconds  (** wall time in forward solves *)
  | S_btran_seconds  (** wall time in transposed solves *)
  | S_update_seconds  (** wall time appending basis-exchange updates *)
  | S_chuzr_seconds
      (** wall time choosing the dual simplex's leaving row (CHUZR) *)
  | S_price_seconds
      (** wall time building simplex pivot rows [rho A] (PRICE) *)
  | S_gc_minor_words  (** minor-heap words allocated in top-level LP solves *)
  | S_gc_major_words  (** major-heap words, same scope *)
  | S_prop_seconds  (** wall time in node propagation *)
  | S_hook_seconds  (** wall time in the node hook (lock held) *)
  | S_cert_seconds  (** wall time in exact node certification *)
  | S_pool_idle_seconds  (** wall time workers spent blocked on the pool *)

type gauge =
  | G_open_nodes  (** open (queued, unprocessed) search nodes *)
  | G_best_bound  (** best proven global dual (lower) bound *)
  | G_incumbent_obj  (** objective of the current incumbent *)
  | G_pool_depth  (** nodes queued in the shared work pool *)
  | G_workers  (** worker domains configured for the solve *)
  | G_lu_fill
      (** stored L+U entries of the latest fresh factorization, the
          largest over the solve's engines; published when the search
          finishes *)

type histogram =
  | H_factor_seconds  (** wall time of one fresh basis factorization *)
  | H_lp_seconds  (** wall time of one top-level LP (re)solve *)

val counter_name : counter -> string
val sum_name : sum -> string
val gauge_name : gauge -> string
val histogram_name : histogram -> string

val counter_of_name : string -> counter option
val sum_of_name : string -> sum option
val gauge_of_name : string -> gauge option
val histogram_of_name : string -> histogram option

val all_counters : counter array
(** Every counter, in declaration order; [counter_index] is its
    position. *)

val all_sums : sum array
val all_gauges : gauge array
val all_histograms : histogram array

val counter_index : counter -> int
val sum_index : sum -> int
val gauge_index : gauge -> int
val histogram_index : histogram -> int

(** {1 Histogram buckets}

    Durations land in log₂ buckets: bucket [i < n_buckets - 1] counts
    observations [<= bucket_le i] seconds, with boundaries
    [1e-6 * 2^i]; the last bucket is the [+Inf] overflow. *)

val n_buckets : int

val bucket_le : int -> float
(** Upper (inclusive) boundary of bucket [i]; [infinity] for the last. *)

(** {1 Registry and shards} *)

type t
(** A metrics registry. *)

type shard
(** A single-writer accumulation buffer. Exactly one domain may write
    a given shard at a time (unchecked, like [Trace.writer]); any
    domain may read it through {!snapshot} or {!merge}. *)

val create : unit -> t
(** A fresh registry; its clock starts now (snapshot timestamps are
    seconds since this call). *)

val make_shard : ?registry:t -> ?writer:Trace.writer -> unit -> shard
(** A fresh shard, registered with [registry] when given (then
    {!snapshot} of the registry includes it), carrying [writer]
    (default {!Trace.null_writer}) for the events of whoever writes
    the shard. Call it from the domain that will write it; the writer
    must belong to that domain too. *)

val writer : shard -> Trace.writer
(** The event writer the shard carries. *)

val shard_count : t -> int
(** Shards registered so far (a solve registers one per search
    context). *)

val incr : shard -> counter -> unit
val add : shard -> counter -> int -> unit

val add_sum : shard -> sum -> float -> unit

val observe : shard -> histogram -> float -> unit
(** Records one duration (seconds) into the histogram. *)

val count : shard -> counter -> int
(** The shard's own cell of a counter — for its owner's control flow
    (e.g. "is this the first node"); readers use {!merge}. *)

val set_gauge : t -> gauge -> float -> unit
(** Publishes a gauge. Gauges start as [nan] ("never set"); exporters
    render non-finite values as null. *)

val set_shared : t -> counter -> int -> unit
(** Sets the registry-level {e absolute} cell of a counter. Snapshots
    report the sum of every shard's cell plus this one; it exists for
    polled totals maintained elsewhere (e.g. trace drop counts), where
    the source is already cumulative. *)

val on_snapshot : t -> (unit -> unit) -> unit
(** Registers a poll to run at the start of every {!snapshot} (on the
    snapshotting domain). Use it to publish gauges/shared cells that
    would be too costly to maintain on the hot path. *)

(** {1 Per-node LP samples}

    A search context records one sample per processed node: how the
    node closed, the simplex pivots its LP solves took and their wall
    time ([0] for a node pruned before any pivot). *)

val node_lp : shard -> Trace.close_reason -> pivots:int -> seconds:float -> unit

type node_lp_row = {
  nl_reason : string;  (** ["all"], or a {!Trace.reason_name} *)
  nl_nodes : int;
  nl_pivots : int;  (** pivot sum *)
  nl_p50 : int;  (** nearest-rank quantiles of per-node pivots *)
  nl_p90 : int;
  nl_max : int;
  nl_seconds : float;  (** LP wall time sum *)
}

val node_lp_table : shard list -> node_lp_row array
(** The distribution of the shards' [(reason, pivots, seconds)] node
    samples: an ["all"] row, then one row per close reason that
    occurred, in {!Trace.close_reason} declaration order. Empty when
    there are no samples. *)

(** {1 Event-to-counter rules}

    The tallies an event stands for, shared by the layer that counts
    it live and by {!Trace_export.Summary}, which replays a trace into
    shards. *)

val refactor_counter : Trace.refactor_trigger -> counter
(** The [C_lu_refactor_*] counter of a refactorization trigger. *)

val verdict_counter : Trace.cert_verdict -> counter
(** [C_certified_nodes], [C_cert_refuted] or [C_cert_uncertifiable]. *)

val count_check : shard -> Trace.cert_verdict -> seconds:float -> unit
(** One exact certification: [C_cert_checked], [seconds] into
    [S_cert_seconds] and the {!verdict_counter}. *)

(** {1 Snapshots} *)

type hist = {
  h_count : int;  (** total observations (= sum of [h_buckets]) *)
  h_sum : float;  (** sum of observed durations, seconds *)
  h_max : float;  (** largest observation ([0.] when empty) *)
  h_buckets : int array;  (** per-bucket counts, length {!n_buckets} *)
}

type snapshot = {
  s_ts : float;  (** seconds since registry creation *)
  s_counters : int array;  (** indexed by [counter_index] *)
  s_sums : float array;  (** indexed by [sum_index] *)
  s_gauges : float array;  (** indexed by [gauge_index]; [nan] = unset *)
  s_hists : hist array;  (** indexed by [histogram_index] *)
}

val empty_snapshot : snapshot
(** All-zero snapshot (gauges [nan]). *)

val snapshot : t -> snapshot
(** Runs the registered polls, then merges every registered shard and
    the shared cells. Exact once all writing domains have joined;
    momentary (per-cell monotone) while they run. *)

val merge : shard list -> snapshot
(** The shards' cells alone, summed (no polls, no shared cells, gauges
    unset, [s_ts = 0]): the view [Simplex.stats] and
    [Branch_bound.stats] are read from. *)

val counter_value : snapshot -> counter -> int
val sum_value : snapshot -> sum -> float
val gauge_value : snapshot -> gauge -> float
val hist_value : snapshot -> histogram -> hist
