(** Sinks and codecs for {!Metrics} snapshots.

    A metrics run is a {e stream} of snapshots, sampled on a cadence
    while the solver works and once more after it returns. The JSONL
    stream is the format read back: its codec is invertible
    ({!snapshot_of_json} inverts {!snapshot_to_json}) and the stream
    validator re-checks a loaded file's invariants. The Prometheus
    text rendering ({!prometheus}) is a write-only export for
    scrapers. *)

val snapshot_to_json : Metrics.snapshot -> Json.t
(** One snapshot as one JSON object: [ts], then [counters], [sums],
    [gauges] and [hists] keyed by instrument name. Non-finite gauges serialize
    as [null]. *)

val snapshot_of_json : Json.t -> (Metrics.snapshot, string) result
(** Inverse of {!snapshot_to_json}. Unknown instrument names are
    errors; missing ones decode as zero/unset so streams survive
    taxonomy growth. *)

val monotonize : Metrics.snapshot -> Metrics.snapshot -> Metrics.snapshot
(** [monotonize prev cur] clamps [cur]'s counters and histogram cells
    to [>= prev]'s. Mid-run snapshots read shard cells without
    synchronization; per-cell writes are monotone but the memory model
    does not promise a later {e read} observes the newer value, so
    sinks clamp against the previously emitted snapshot to keep the
    stream invariant unconditional. *)

val write_jsonl : out_channel -> Metrics.snapshot -> unit
(** Appends one snapshot line (no flush). *)

val load : string -> (Metrics.snapshot list, string) result
(** Loads a [.jsonl] snapshot stream, in file order. *)

val check : Metrics.snapshot list -> (unit, string) result
(** Stream validator: non-empty, timestamps non-decreasing, counters
    and histogram buckets monotone across snapshots, histogram counts
    equal to their bucket sums, sums/maxima non-negative. *)

val prometheus : Metrics.snapshot -> string
(** Prometheus text exposition (version 0.0.4) of one snapshot:
    counters as [tpart_<name>_total], gauges as [tpart_<name>]
    (omitted while unset), histograms as the conventional
    [_bucket{le="..."}]/[_sum]/[_count] series, each with [# HELP] and
    [# TYPE] headers. *)

(** {1 Counter report}

    The one layout of a solve's counters, shared by [tpart solve
    --stats], [--certify] and [--json], [tpart metrics summary] and
    [tpart trace summary]. It names every counter, sum and histogram of
    a snapshot exactly once. *)

type instrument =
  | Counter of Metrics.counter
  | Sum of Metrics.sum
  | Gauge of Metrics.gauge
  | Histogram of Metrics.histogram

val certification : instrument list
(** The instruments of the [certification:] line. *)

val pp_certification : ?root:Certify.t -> Format.formatter -> Metrics.snapshot -> unit
(** The certification counts and time as [key=value] pairs
    ([checked=1 certified=1 refuted=0 uncertifiable=0 time=0.002s]),
    then [root=] and the root certificate when given. *)

val pp_report :
  ?only:instrument list ->
  ?certified:Certify.t option ->
  ?describe_row:(int -> string) ->
  ?node_lps:Metrics.node_lp_row array ->
  ?workers:float * Metrics.snapshot array ->
  Format.formatter ->
  Metrics.snapshot ->
  unit
(** The text report, newline-terminated sections (docs/OBSERVABILITY.md
    lists every key): a [certification:] line when a check ran or
    [certified] is given, for a certified solve with its root
    certificate if one was kept ({!pp_certification}, then the support
    rows of a Farkas proof through [describe_row]); the [lp-stats:] line of
    LP-engine [key=value] pairs, its [fill] the [G_lu_fill] gauge and
    its [factor] the factor-time histogram's sum; a [deductions:]
    table (two-space indent and gaps, columns as wide as their widest
    cell) of propagation, reduced-cost fixing and hook counts and
    times; a [counters:] table of every other counter and sum, keyed by
    its metric name with [-] for [_], and each histogram's [-count],
    [-sum] and [-max]; a [node-lps:] table of [node_lps] (reason,
    nodes, pivots, p50, p90, max, lp-time); and, given the
    search's wall-clock seconds and one snapshot per worker domain, a
    [workers:] table (nodes, incumbents, steals and handoffs with their
    rates, idle time and its share, pivots). With [only], a field shows
    when every instrument it reads is listed, and a section with no
    field left is skipped. *)

val cells_to_json : ?only:instrument list -> Metrics.snapshot -> (string * Json.t) list
(** The report as JSON: the [counters], [sums] and [hists] members of
    {!snapshot_to_json}, restricted to [only] (default: all), in
    declaration order. *)

val node_lps_to_json : Metrics.node_lp_row array -> Json.t
(** The per-node LP table as a JSON array of row objects ([reason], [nodes],
    [pivots], [p50], [p90], [max], [seconds]). *)

(** {1 Aggregate summary} — what [tpart metrics summary] prints. *)

module Summary : sig
  type t = {
    snapshots : int;
    duration : float;  (** last timestamp minus first *)
    final : Metrics.snapshot;
  }

  val of_snapshots : Metrics.snapshot list -> (t, string) result

  val pp : Format.formatter -> t -> unit
  (** What only a stream knows — its snapshot count and window, every
      gauge but the LU fill, node and pivot rates per second — then the
      final snapshot's {!pp_report}. *)

  val to_json : t -> Json.t
end

(** {1 Sampler}

    A background systhread snapshotting a registry on a fixed cadence.
    A thread — not a domain: an extra domain, even one asleep, is
    interrupted at every stop-the-world minor collection and costs
    tens of percent of a sequential solve, while a sleeping thread
    costs nothing until it wakes. [on_sample] runs on the sampler
    thread for every periodic snapshot; the final snapshot (after
    {!stop}) is {e returned}, not passed to [on_sample], so the caller
    can emit it after every worker has joined — that snapshot is
    exact. *)

type sampler

val start :
  ?interval:float ->
  Metrics.t ->
  on_sample:(Metrics.snapshot -> unit) ->
  sampler
(** Starts the sampling thread ([interval] defaults to 1 s; clamped
    to [>= 0.01]). The sleep is chunked so {!stop} returns promptly. *)

val stop : sampler -> Metrics.snapshot
(** Signals the sampler, joins its thread, and takes one final
    snapshot on the calling thread. *)
