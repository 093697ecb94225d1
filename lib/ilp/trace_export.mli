(** Sinks and readers for {!Trace} event streams.

    Three sinks hide behind one {!sink} interface:

    - {!jsonl_sink}: one flat JSON object per line, the canonical
      machine-readable form (schema in docs/OBSERVABILITY.md);
    - {!chrome_sink}: Chrome [trace_event] JSON, loadable in
      [chrome://tracing] and Perfetto with one track (tid) per trace
      writer/domain;
    - {!summary_sink}: an in-memory aggregator deriving the metrics
      report ({!Summary.t}) — time-in-phase, bound-vs-time convergence
      series, tree-shape statistics.

    Both file formats are self-describing enough to be read back with
    {!load}, which the [tpart trace] subcommands rely on. *)

type sink = {
  on_record : Trace.record -> unit;
  on_close : unit -> unit;  (** Flush trailers; does not close channels. *)
}

val run : sink -> Trace.record array -> unit
(** Feeds every record then [on_close]. *)

val jsonl_sink : out_channel -> sink
val chrome_sink : out_channel -> sink

(** {1 JSONL codec} *)

val record_to_json : Trace.record -> Json.t
(** The flat JSONL object: envelope [ts]/[dom]/[w]/[seq] plus a [type]
    discriminator and per-type payload fields. *)

val record_of_json : Json.t -> (Trace.record, string) result
(** Inverse of {!record_to_json}; the error names the missing or
    ill-typed field — this is the event-schema validator used by
    [tpart trace validate] and CI. *)

(** {1 Reading traces back} *)

val load : string -> (Trace.record array, string) result
(** Reads a trace file, auto-detecting JSONL vs Chrome [trace_event]
    (an object with a [traceEvents] array). Metadata events are
    skipped; records come back in file order. *)

val check : Trace.record array -> string list
(** Stream-consistency violations (empty when healthy): per-writer
    timestamps must be non-decreasing and sequence numbers strictly
    increasing, node closes must match opens. *)

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
    nodes_opened : int;
    nodes_closed : int;
    close_reasons : (string * int) list;
    max_depth : int;
    depth_hist : (int * int) list;  (** (depth, nodes opened) sorted. *)
    lp_solves : int;
    lp_pivots : int;
    lp_flips : int;  (** Bound flips without a basis change. *)
    lp_seconds : float;
    lu_factors : int;
    lu_refactors : (string * int) list;  (** Per trigger. *)
    prop_runs : int;
    prop_fixings : int;
    prop_conflicts : int;
    cert_checks : int;  (** Exact certifications performed. *)
    cert_seconds : float;  (** Time spent in rational arithmetic. *)
    cert_verdicts : (string * int) list;  (** Per verdict name. *)
    incumbents : (float * float * int) list;
        (** Convergence series: (seconds, objective, node), in time
            order. *)
    phases : phase list;
        (** Self-time per span name (nested child spans subtracted),
            summed across writers, largest first. *)
  }

  val of_records : Trace.record array -> t
  val pp : Format.formatter -> t -> unit
  val to_json : t -> Json.t
end

val summary_sink : unit -> sink * (unit -> Summary.t)
(** The aggregator sink and a function yielding the report once the
    stream is closed. *)
