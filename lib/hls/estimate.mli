(** Heuristic estimation of the number of temporal segments.

    First stage of the paper's flow (Figure 2): "the system proceeds by
    first heuristically estimating the number of segments (N), which
    becomes an upper bound on the number of temporal segments in the NLP
    formulation. It uses a fast, heuristic list scheduling technique."

    The estimator also doubles as the {e greedy baseline partitioner}
    used in the benchmark ablations: unlike the exact ILP, it fills
    segments greedily in topological task order. *)

type constraints = {
  capacity : int;  (** FPGA resource capacity [C]. *)
  alpha : float;  (** Logic-optimization factor (0, 1]. *)
  max_steps : int;  (** Control steps available to one segment. *)
}

type segmentation = {
  segments : Taskgraph.Graph.task_id list list;
      (** Tasks of each segment, in execution order. *)
  comm_cost : int;
      (** The paper's objective, eq. 14, evaluated on this heuristic
          solution ({!comm_cost_of_segments}). *)
}

val estimate :
  Taskgraph.Graph.t -> Component.allocation -> constraints -> segmentation option
(** Greedy temporal partitioning: walk tasks in topological order and
    pack each into the current segment unless the segment would exceed
    the capacity or step budget (checked with a list schedule of the
    segment's operations and the FG cost of the used instances). Returns
    [None] when even a single task violates the constraints (no feasible
    segmentation exists for any N). *)

val num_segments : segmentation -> int

val comm_cost_of_segments :
  Taskgraph.Graph.t -> Taskgraph.Graph.task_id list list -> int
(** Objective (eq. 14) of an arbitrary segmentation, with the segment
    index as the partition: each task edge's bandwidth times the number
    of segment boundaries between its endpoints. *)

val pp : Format.formatter -> segmentation -> unit
