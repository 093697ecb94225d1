(** The end-to-end temporal partitioning and synthesis flow (Figure 2).

    Stages: (1) heuristically estimate the number of segments [N] with
    the list-scheduling packer; (2) compute ASAP/ALAP mobility ranges;
    (3) formulate the 0-1 LP model; (4) solve by branch and bound with
    the paper's variable-selection heuristic; (5) extract and validate
    the optimal partition, schedule and binding. *)

type result = {
  spec : Spec.t;  (** The instance actually solved (with the final N). *)
  estimated_n : int option;
      (** Segment-count estimate from the heuristic stage ([None] when
          the caller pinned N explicitly or the heuristic found no
          feasible packing). *)
  heuristic : Hls.Estimate.segmentation option;
      (** Greedy baseline segmentation (its [comm_cost] upper-bounds the
          optimum). *)
  report : Solver.report;
  trace : string list;  (** Human-readable stage log, in order. *)
}

val run :
  ?options:Formulation.options ->
  ?strategy:Branching.strategy ->
  ?time_limit:float ->
  ?num_partitions:int ->
  ?lint:bool ->
  ?jobs:int ->
  ?deterministic:bool ->
  ?certify:Ilp.Branch_bound.certify_level ->
  ?tracer:Ilp.Trace.t ->
  ?metrics:Ilp.Metrics.t ->
  graph:Taskgraph.Graph.t ->
  allocation:Hls.Component.allocation ->
  ?capacity:int ->
  ?alpha:float ->
  ?scratch:int ->
  ?latency_relax:int ->
  unit ->
  result
(** Runs the full flow. When [num_partitions] is omitted, N is taken
    from the estimation stage (and the estimate must exist — otherwise
    the flow falls back to [N = number of tasks], the trivial upper
    bound). [lint], [jobs] and [deterministic] forward to
    {!Solver.solve}: lint analyzes and audits the formulated model,
    failing fast on error-level findings; [jobs] runs the solve stage
    on that many worker domains. [certify] turns on exact rational certification of LP verdicts (see
    {!Solver.solve} and docs/VERIFICATION.md); when any check ran, the
    stage log gains a [certify:] line with the verdict counts.
    [tracer]
    records structured events across the flow — estimate / formulate /
    presolve phase spans plus the full solver taxonomy — for export
    through {!Ilp.Trace_export} (see [docs/OBSERVABILITY.md]).
    [metrics] forwards an {!Ilp.Metrics} registry to the solve stage
    for the sampling exporters in {!Ilp.Metrics_export} (default: the
    solve counts into a private one). *)

val pp : Format.formatter -> result -> unit
