(** Structured tracing for the solver stack.

    A {!t} (tracer) owns one append-only event buffer per participating
    domain. Each buffer is single-writer: the domain that registered it
    is the only one that ever appends, so recording is lock-free on the
    hot path (registration itself takes a mutex, but happens once per
    worker). Buffers grow geometrically up to a per-writer capacity;
    past it the ring wraps, overwriting the oldest events and counting
    the overwritten ones in {!dropped} — a bounded-memory guarantee, not
    a silent loss.

    Timestamps come from {!Mono}, so they are monotone {e per writer and
    across domains}, and are recorded relative to the tracer's creation
    time.

    The disabled tracer costs one branch per event at every
    instrumentation site: call sites guard with [if Trace.active w then
    Trace.emit w (…)], and [active] is a single pattern match on an
    immediate — no allocation, no call when tracing is off (the event
    constructor argument is never built). See docs/OBSERVABILITY.md for
    the event taxonomy and measured overhead.

    A search context carries its writer in its {!Metrics.shard}
    ({!Metrics.writer}), so every layer that counts into the shard
    emits through the same buffer. The file writers (JSONL, Chrome
    [trace_event]), the JSONL reader and the summary live in
    {!Trace_export}. *)

(** {1 Event taxonomy} *)

type lp_kind =
  | Lp_primal  (** Cold solve from a fresh slack basis. *)
  | Lp_dual  (** Warm dual re-optimization after bound changes. *)

type refactor_trigger = Rf_eta | Rf_numeric | Rf_residual

type close_reason =
  | Branched of { var : int; frac : float }
      (** Children pushed; [var] is the branching variable, [frac] its
          fractionality in the node relaxation. *)
  | Integral  (** Relaxation integral: incumbent candidate. *)
  | Infeasible_node
  | Bound_pruned  (** Objective at or above the incumbent cutoff. *)
  | Hook_pruned  (** Problem-specific completion hook pruned the subtree. *)
  | Prop_pruned  (** Domain propagation found a conflict before any pivot. *)
  | Unbounded_node  (** The relaxation is unbounded: the search stops. *)
  | Numeric  (** Uncertified iteration limit: search stops soundly. *)

type cert_verdict = Cert_certified | Cert_refuted | Cert_uncertifiable
(** Outcome of one exact certification ({!Certify} verdicts, mirrored
    here so tracing stays below the certification layer in the module
    graph). *)

type incumbent_source =
  | Src_search  (** The tree search hit an integral LP optimum. *)
  | Src_hook  (** A problem-specific completion hook built the solution. *)
      (** Where an installed incumbent came from (also surfaced in the
          incumbent timeline of {!Branch_bound} stats and JSON reports). *)

type event =
  | Node_open of { id : int; parent : int; depth : int; bound : float }
      (** A branch-and-bound node starts evaluation. [parent] is the
          processed id of the node that created it ([-1] for the root);
          [bound] the parent LP objective (a valid lower bound). *)
  | Node_close of { id : int; obj : float; reason : close_reason }
      (** Evaluation finished. [obj] is the node LP objective ([nan]
          when the LP was not solved, e.g. propagation pruned it). *)
  | Lp_solve of {
      kind : lp_kind;
      pivots : int;
          (** Basis-changing pivots (the engine's [total_pivots]
              delta). *)
      flips : int;
          (** Bound flips performed without a basis change (ratio-test
              flips of the entering column and dual flip batches); not
              included in [pivots]. *)
      obj : float;
      primal_res : float;
      dual_res : float;
      dt : float;  (** Seconds spent inside the simplex entry point. *)
    }
  | Lu_factor of { m : int; fill : int; probes : int; dt : float }
      (** A fresh sparse LU factorization completed. [m] is the basis
          dimension, [fill] the stored entries of L + U, [probes] the
          number of threshold-passing candidates the Markowitz pivot
          search evaluated over the whole factorization (the cost the
          bucket search bounds — see {!Lu.factor}). Streams written
          before these fields existed decode with [m = 0] and
          [probes = 0]. *)
  | Lu_refactor of { trigger : refactor_trigger; etas : int }
      (** A refactorization was triggered; [etas] is the number of
          stored updates discarded. *)
  | Prop_run of { steps : int; fixings : int; conflict : bool }
      (** One per-node propagation run ([steps] row evaluations). *)
  | Incumbent of { node : int; obj : float; source : incumbent_source }
      (** An improving incumbent was installed. [source] says who found
          it: the search itself or the completion hook. *)
  | Cert_check of { node : int; verdict : cert_verdict; kind : string; dt : float }
      (** One exact certification of a node LP verdict: [node] is the
          processed node id (0 when certifying outside the search),
          [kind] the certificate detail family (["exact_optimum"],
          ["farkas_proof"], …) and [dt] the seconds spent in rational
          arithmetic. *)
  | Hook_give_up of { node : int; what : string }
      (** The completion hook could not decide within its budget or
          deadline at processed node [node]; [what] is the hook's own
          description of what it gave up on (for the scheduler hook,
          the partition map and the backtrack budget). *)
  | Span_begin of string
  | Span_end of string
      (** Named phase spans (seed / search / worker / presolve / …);
          properly nested per writer. *)

(** {1 Tracer and writers} *)

type t
type writer

val disabled : t
(** The no-op tracer: [enabled] is [false], [main] is {!null_writer}. *)

val create : ?capacity:int -> unit -> t
(** A live tracer. [capacity] (default [2^20], rounded up to a power of
    two) bounds the events retained {e per writer}; beyond it the oldest
    events are overwritten and counted. *)

val enabled : t -> bool

val null_writer : writer
(** Swallows everything; [active] is [false]. *)

val active : writer -> bool
(** The one-branch guard: call before building an event. *)

val main : t -> writer
(** The tracer's pre-registered writer for the calling/sequential track
    (named ["main"]); {!null_writer} for {!disabled}. *)

val make_writer : t -> string -> writer
(** Registers a fresh single-writer buffer (one per worker domain;
    call it from the domain that will write). Thread-safe. Returns
    {!null_writer} on a disabled tracer. *)

val emit : writer -> event -> unit
(** Appends the event with the current {!Mono} timestamp. Must only be
    called from the domain that registered the writer. *)

val dropped : t -> int
(** Total events overwritten across all writers (0 in healthy runs). *)

(** {1 Collection} *)

type record = {
  dom : int;  (** Writer index in registration order; 0 is ["main"]. *)
  dname : string;  (** Writer name. *)
  seq : int;  (** Per-writer emission counter (dense from 0 unless the
                  ring wrapped). *)
  ts : float;  (** Seconds since tracer creation; monotone per writer. *)
  ev : event;
}

val collect : t -> record array
(** Merges every writer's buffer, sorted by [(ts, dom, seq)]. Call only
    after all writers have quiesced (e.g. worker domains joined). *)

(** {1 Schema}

    Each event's payload is one ordered field list ({!fields}), which
    the JSONL writer and the Chrome [args] of {!Trace_export} both
    read. A new field is one entry there and one line of the decoder
    ([Trace_export.record_of_json]); a new event is one case in each,
    and its Chrome shape. *)

type field =
  | Int of int
  | Float of float
  | Nullable of float  (** [nan] renders as null. *)
  | Str of string
  | Bool of bool

val fields : event -> string * (string * field) list
(** The event's type name ([node_open], [lp_solve], …) and its payload
    fields in output order. *)

(** {1 Canonical names}

    Each enum has one [(constructor, name)] table in declaration order;
    the [*_name] functions and the decoders' inverse ({!of_name}) both
    read it. [close_reasons] holds [Branched] with a dummy payload. *)

val lp_kinds : (lp_kind * string) array
val triggers : (refactor_trigger * string) array
val close_reasons : (close_reason * string) array
val cert_verdicts : (cert_verdict * string) array
val incumbent_sources : (incumbent_source * string) array

val of_name : ('a * string) array -> string -> 'a option
(** The constructor a table names; [None] on unknown names. *)

val reason_index : close_reason -> int
(** The reason's position in {!close_reasons}. *)

val lp_kind_name : lp_kind -> string
val trigger_name : refactor_trigger -> string
val reason_name : close_reason -> string
val cert_verdict_name : cert_verdict -> string
val incumbent_source_name : incumbent_source -> string
