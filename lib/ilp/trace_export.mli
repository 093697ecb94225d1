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
    node_lps : Metrics.node_lp_row array;
        (** The per-node LP table of [--stats]
            ({!Metrics.node_lp_rows}): each [Lp_solve] counts toward
            the node open on its writer when it ran, and the node's
            sample is taken at its close. LP seconds are the simplex
            entry points' own times, so they read slightly below
            [--stats]' node-timed column. *)
  }

  val of_records : Trace.record array -> t
  val pp : Format.formatter -> t -> unit
  val to_json : t -> Json.t
end
