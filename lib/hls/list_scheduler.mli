(** Resource-constrained list scheduling.

    The fast heuristic scheduler of the paper's flow (Figure 2): it
    estimates schedule lengths under a functional-unit allocation and
    drives the segment-count estimation ({!Estimate}). Priorities are
    longest-path-to-sink (critical-path scheduling). Supports the
    multicycle / pipelined units of the Section 3.3 extension: an
    operation's result is available [latency] steps after issue, and a
    non-pipelined unit blocks for its whole latency. *)

type binding = { step : int array; fu : int array; finish : int array }
(** For each operation: its 1-based issue step, the
    {!Component.instance} id executing it, and the step its result is
    available ([step + latency - 1]). *)

val schedule :
  ?restrict:Taskgraph.Graph.op_id list ->
  Taskgraph.Graph.t ->
  Component.allocation ->
  binding option
(** [schedule g alloc] list-schedules the (restricted set of) operations
    of [g] on the instances of [alloc]. Returns [None] when some
    operation kind has no capable instance. Dependencies into operations
    outside [restrict] are ignored; dependencies from outside are
    treated as satisfied at step 0 (i.e. inputs are available). Entries
    of operations outside [restrict] are [-1]. *)

val length : binding -> int
(** Number of control steps used (max finish; 0 for an empty schedule). *)

val used_instances : binding -> int list
(** Instance ids actually used, sorted. *)

val check_valid :
  ?restrict:Taskgraph.Graph.op_id list ->
  Taskgraph.Graph.t ->
  Component.allocation ->
  binding ->
  unit
(** Verifies (raising [Invalid_argument]): every scheduled operation is
    on a capable instance; no two operations share an instance in a
    step; dependencies are strictly increasing in step. Used by tests
    and property checks. *)

val fu_requirements : Taskgraph.Graph.t -> Component.allocation
(** The paper's set [F]: functional units required for the most parallel
    (ASAP) schedule — for each operation kind, the maximum number of
    simultaneously-executing operations, mapped onto the cheapest capable
    FU kind of {!Component.default_library}. *)
