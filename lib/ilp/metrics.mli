(** Typed metrics registry for the solver stack.

    A registry holds three kinds of instruments, all identified by
    closed variant types so every consumer (JSONL codec, Prometheus
    rendering, summary, tests) enumerates exactly the same families:

    - {e counters} — monotonically non-decreasing event counts,
      accumulated in per-domain single-writer shards (same ownership
      discipline as {!Trace}'s ring buffers: appends are plain array
      stores, no synchronization on the hot path);
    - {e gauges} — last-value-wins instantaneous readings (best dual
      bound, open-node count, pool depth), stored in atomics because
      any domain may publish them;
    - {e histograms} — log₂-bucketed duration distributions with
      per-shard bucket counts, sum and max (factor time, LP solve
      time).

    The disabled registry costs one pattern match per instrumented
    site ({!active} on a {!shard}), mirroring [Trace.active]: guard
    every increment as

    {[ if Metrics.active ms then Metrics.incr ms Metrics.C_lp_pivots ]}

    so nothing is computed or allocated when metrics are off.

    {2 Snapshots}

    {!snapshot} merges all shards into one immutable view. Shard cells
    are written without synchronization by their owning domains;
    word-sized reads cannot tear in OCaml, so a mid-run snapshot is a
    momentary (racy but well-defined) view, and a snapshot taken after
    every worker domain has joined is exact — the acceptance tests pin
    final-snapshot node/pivot/factorization totals against
    [Branch_bound.stats] equality. Registered {e polls}
    ({!on_snapshot}) run first on the snapshotting domain, letting
    slow-moving sources (pool depth, trace drop counts) publish
    gauges/shared cells on demand instead of on the hot path. *)

(** {1 Instrument taxonomy} *)

type counter =
  | C_nodes  (** branch-and-bound nodes processed *)
  | C_incumbents  (** improving incumbent installations *)
  | C_certified_nodes  (** node LP verdicts certified exactly *)
  | C_lp_solves  (** top-level [Simplex.primal]/[dual_reopt] calls *)
  | C_lp_pivots  (** simplex basis changes *)
  | C_lp_bound_flips  (** bound flips without a basis change *)
  | C_lp_dual_stalls  (** dual reopts that hit the dual cap *)
  | C_lp_primal_restarts
      (** singular-basis cold restarts inside a dual reopt *)
  | C_ftran_solves  (** pattern-capable FTRANs (entering column) *)
  | C_ftran_hyper  (** of those, solved hyper-sparsely *)
  | C_btran_solves  (** pattern-capable BTRANs (dual pricing row) *)
  | C_btran_hyper  (** of those, solved hyper-sparsely *)
  | C_lu_factorizations  (** fresh basis factorizations *)
  | C_lu_refactorizations  (** refactorizations (eta/numeric/residual) *)
  | C_lu_probes  (** candidate entries examined by the LU pivot search *)
  | C_prop_runs  (** per-node propagation runs *)
  | C_prop_fixings  (** variables fixed by propagation *)
  | C_pool_steals  (** nodes taken from the shared pool *)
  | C_pool_handoffs  (** nodes donated to the shared pool *)
  | C_pool_hungry_polls  (** hungry-pool polls by workers *)
  | C_trace_dropped_events  (** trace ring-buffer drops (polled) *)

type gauge =
  | G_open_nodes  (** open (queued, unprocessed) search nodes *)
  | G_best_bound  (** best proven global dual (lower) bound *)
  | G_incumbent_obj  (** objective of the current incumbent *)
  | G_pool_depth  (** nodes queued in the shared work pool *)
  | G_workers  (** worker domains configured for the solve *)

type histogram =
  | H_factor_seconds  (** wall time of one fresh basis factorization *)
  | H_lp_seconds  (** wall time of one top-level LP (re)solve *)

val counter_name : counter -> string
val gauge_name : gauge -> string
val histogram_name : histogram -> string

val counter_of_name : string -> counter option
val gauge_of_name : string -> gauge option
val histogram_of_name : string -> histogram option

val all_counters : counter array
(** Every counter, in a fixed order; [counter_index] is its position. *)

val all_gauges : gauge array
val all_histograms : histogram array

val counter_index : counter -> int
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
(** A metrics registry, or the disabled sentinel. *)

type shard
(** A single-writer accumulation buffer. Exactly one domain may write
    a given shard (unchecked, like [Trace.writer]); any domain may
    read it through {!snapshot}. *)

val disabled : t
(** No-op registry: [enabled] is [false], every shard it yields is
    {!null_shard}, snapshots are all-zero. *)

val create : unit -> t
(** A live registry; its clock starts now ({!now} and snapshot
    timestamps are seconds since this call). *)

val enabled : t -> bool

val null_shard : shard
(** The no-op shard; {!active} is [false]. *)

val active : shard -> bool
(** One pattern match on an immediate — the per-site guard. *)

val main : t -> shard
(** The registry's pre-registered shard for the creating/sequential
    domain (like [Trace.main]). [null_shard] on {!disabled}. *)

val make_shard : t -> shard
(** Registers a fresh shard. Call it from the domain that will write
    it. [null_shard] on {!disabled}. *)

val incr : shard -> counter -> unit
val add : shard -> counter -> int -> unit

val observe : shard -> histogram -> float -> unit
(** Records one duration (seconds) into the histogram. *)

val set_gauge : t -> gauge -> float -> unit
(** Publishes a gauge (no-op on {!disabled}). Gauges start as [nan]
    ("never set"); exporters render non-finite values as null. *)

val set_shared : t -> counter -> int -> unit
(** Sets the registry-level {e absolute} cell of a counter. Snapshots
    report the sum of every shard's cell plus this one; it exists for
    polled totals maintained elsewhere (e.g. trace drop counts), where
    the source is already cumulative. *)

val add_shared : t -> counter -> int -> unit

val on_snapshot : t -> (unit -> unit) -> unit
(** Registers a poll to run at the start of every {!snapshot} (on the
    snapshotting domain). Use it to publish gauges/shared cells that
    would be too costly to maintain on the hot path. *)

val now : t -> float
(** Seconds since {!create} ([0.] on {!disabled}). *)

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
  s_gauges : float array;  (** indexed by [gauge_index]; [nan] = unset *)
  s_hists : hist array;  (** indexed by [histogram_index] *)
}

val empty_snapshot : snapshot
(** All-zero snapshot (gauges [nan]), as {!snapshot} of {!disabled}. *)

val snapshot : t -> snapshot
(** Runs the registered polls, then merges every shard. Exact once all
    writing domains have joined; momentary (per-cell monotone) while
    they run. *)

val counter_value : snapshot -> counter -> int
val gauge_value : snapshot -> gauge -> float
val hist_value : snapshot -> histogram -> hist
