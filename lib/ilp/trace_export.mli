(** Writers and the reader for {!Trace} event streams.

    Two file formats are written:

    - {!write_jsonl}: one flat JSON object per line, the canonical
      machine-readable form (schema in docs/OBSERVABILITY.md) and the
      only one read back ({!load}), which the [tpart trace]
      subcommands rely on;
    - {!write_chrome}: Chrome [trace_event] JSON, an export for
      [chrome://tracing] and Perfetto with one track (tid) per trace
      writer/domain.

    {!Summary} derives the metrics report — time-in-phase,
    bound-vs-time convergence series, tree-shape statistics — from a
    record stream. *)

val write_jsonl : out_channel -> Trace.record array -> unit
(** Writes one JSONL line per record, then flushes (the channel stays
    open). *)

val write_chrome : out_channel -> Trace.record array -> unit
(** Writes the records as one Chrome [trace_event] document: one event
    per record, its [args] the sequence number and the {!Trace.fields}
    payload (less [dt], which becomes the [dur] of a complete event,
    and the [name] of a phase span, which names the event), then
    process and thread-name metadata; flushes, leaving the channel
    open. *)

(** {1 JSONL codec} *)

val record_to_json : Trace.record -> Json.t
(** The flat JSONL object: envelope [ts]/[dom]/[w]/[seq], then the
    [type] and payload fields of {!Trace.fields}. *)

val record_of_json : Json.t -> (Trace.record, string) result
(** Inverse of {!record_to_json}; the error names the missing or
    ill-typed field, or the field holding an unknown enum name — this
    is the event-schema validator used by [tpart trace validate] and
    CI. *)

(** {1 Reading traces back} *)

val load : string -> (Trace.record array, string) result
(** Reads a JSONL trace file; records come back in file order. The
    error names the first offending line. *)

val check : Trace.record array -> string list
(** Stream-consistency violations (empty when healthy), one message
    each: per writer, timestamps must be non-decreasing and sequence
    numbers dense (each one above the last); every node must open once
    and close once, after its open; and per writer, phase spans must
    nest properly — each [Span_end] closes the innermost open span of
    its name, and every span that begins ends. A writer whose ring
    wrapped (first retained sequence number above 0) may end spans
    whose begins were overwritten. *)

(** {1 Search tree} *)

module Tree : sig
  type node = {
    id : int;
    parent : int;  (** [-1] for the root. *)
    depth : int;
    bound : float;  (** Parent relaxation bound at open. *)
    obj : float;  (** Node LP objective; [nan] if the LP never ran. *)
    reason : string;  (** {!Trace.reason_name}, [""] if never closed. *)
    dom : int;  (** Writer that processed the node. *)
    dname : string;
    opened : float;
    closed : float;  (** [nan] if never closed. *)
  }

  val of_records : Trace.record array -> node list
  (** Nodes sorted by id, joining [Node_open]/[Node_close] pairs. *)

  val to_dot : node list -> string
  (** Graphviz digraph; nodes colored by close reason. *)

  val to_json : node list -> Json.t
end

(** {1 Metrics report} *)

(** A trace replayed into the one counter store. Each writer's events
    are counted into an unregistered {!Metrics} shard with the
    instruments, and by the rules ({!Metrics.refactor_counter},
    {!Metrics.count_check}), that its search context's shard counted
    them with live: a [Node_open] is a node, an [Lp_solve] a solve
    with its pivots, flips and time, a [Prop_run] conflict a
    propagation prune, and so on. The instruments in {!replayed} then
    equal a complete trace's solve's final snapshot (floating sums up
    to summation order across writers). With [dropped > 0] they are
    lower bounds. What the snapshot cannot hold, only the trace knows:
    the writers, the depth histogram, the incumbent series and the
    phases. *)
module Summary : sig
  type phase = { phase : string; seconds : float; count : int }

  type t = {
    events : int;
    dropped : int;
        (** Events lost to ring-buffer wrap-around, summed over
            writers (each writer numbers its events densely from 0, so
            its smallest surviving sequence number is its drop count).
            Rendered as an explicit warning by {!pp} when positive. *)
    duration : float;  (** Largest timestamp seen. *)
    writers : (string * int) list;  (** Events per writer, dom order. *)
    max_depth : int;
    depth_hist : (int * int) list;  (** (depth, nodes opened) sorted. *)
    incumbents : (float * float * int) list;
        (** Convergence series: (seconds, objective, node), in time
            order. *)
    phases : phase list;
        (** Self-time per span name (nested child spans subtracted),
            summed across writers, largest first. *)
    metrics : Metrics.snapshot;
        (** The writers' shards merged ([s_ts = 0], gauges unset).
            Only the {!replayed} instruments are counted. *)
    node_lps : Metrics.node_lp_row array;
        (** The per-node LP table of [--stats]
            ({!Metrics.node_lp_table} over the writers' shards): a
            node's pivots are its writer's [C_lp_pivots] delta from
            its [Node_open] to its [Node_close], as the search takes
            them live. LP seconds are the simplex entry points' own
            times, so they read slightly below [--stats]' node-timed
            column. A close whose open was dropped is not counted. The
            rows also give the closed-node count and the close
            reasons. *)
  }

  val replayed : Metrics_export.instrument list
  (** The instruments a trace reproduces: node, incumbent, LP, LU,
      propagation, hook give-up and certification counts,
      [S_cert_seconds], [H_factor_seconds] (a [Lu_factor] event's [dt]
      is the time the histogram observes, singular attempts included)
      and [H_lp_seconds]. Hook time has no event, so only [--stats]
      reports it. *)

  val of_records : Trace.record array -> t

  val pp : Format.formatter -> t -> unit
  (** The text report of [tpart trace summary]: what only the trace
      knows (events per writer, dropped events, the largest depth, the
      close reasons, incumbents and phases), then
      {!Metrics_export.pp_report} of [metrics] limited to {!replayed},
      with the [node_lps] table, so its rows read like [tpart solve
      --stats] rows. *)

  val to_json : t -> Json.t
  (** The report as one object: [events], [dropped], [duration],
      [writers], [max_depth], [depth_hist], then the {!replayed}
      instruments under the metrics codec's [counters], [sums] and
      [hists] members ({!Metrics_export.cells_to_json}), then
      [incumbents], [phases] and [node_lps]. *)
end
