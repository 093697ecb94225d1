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

val cells_to_json :
  Metrics.snapshot ->
  counters:Metrics.counter list ->
  sums:Metrics.sum list ->
  hists:Metrics.histogram list ->
  (string * Json.t) list
(** The [counters], [sums] and [hists] members of {!snapshot_to_json},
    restricted to the named instruments, in the given order. *)

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

(** {1 Text tables} — the layout of the [tpart solve --stats] tables. *)

val pp_table : Format.formatter -> string list list -> unit
(** Rows of cells, the first row the header: every line indented by
    two spaces, columns two spaces apart and as wide as their widest
    cell, the first column left-aligned and the others right-aligned,
    each line newline-terminated. *)

val pp_node_lps : Format.formatter -> Metrics.node_lp_row array -> unit
(** The per-node LP table, as [tpart solve --stats] and [tpart trace
    summary] print it: a [node-lps:] heading, then a {!pp_table} with
    one row per {!Metrics.node_lp_row} (reason, nodes, pivots, p50,
    p90, max, lp-time). Prints nothing for an empty table. *)

val node_lps_to_json : Metrics.node_lp_row array -> Json.t
(** The table as a JSON array of row objects ([reason], [nodes],
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
