(** Extraction and independent validation of solutions.

    A {!t} is the designer-facing result: the temporal partition of the
    tasks, the schedule and binding of every operation, and the derived
    quantities the paper reports. {!validate} re-checks the {e original}
    non-linear constraint semantics of the paper directly on the
    extracted design — deliberately not reusing the linearized model —
    so that a formulation or solver bug cannot certify a wrong design. *)

type t = {
  partition_of : int array;  (** task -> partition, 1-based. *)
  op_step : int array;  (** operation -> control step, 1-based. *)
  op_fu : int array;  (** operation -> instance id. *)
  comm_cost : int;
      (** Design cost: the bandwidth of every edge whose tasks sit in
          different partitions, charged {e once per edge} — the
          definition {!Enumerate} optimizes too. Eq. 14, the model's
          objective ({!Solver.report}[.objective]), charges an edge once
          per partition boundary it spans, [bw * (p(t2) - p(t1))], so
          the two differ whenever an edge skips a partition. *)
  partitions_used : int;  (** Number of non-empty partitions. *)
}

val of_schedule : Spec.t -> int array -> int array * int array -> t
(** [of_schedule spec part (op_step, op_fu)] is the design of a map and
    its schedule, with [comm_cost] and [partitions_used] derived from
    [part]. The design keeps the three arrays it is given. *)

val extract : Vars.t -> float array -> t
(** Reads a solution vector of the model into a design. The vector must
    be integral on the binary variables (as returned by
    {!Ilp.Branch_bound.solve}). *)

val comm_cost_of_partition : Spec.t -> int array -> int
(** Design cost ({!t}[.comm_cost]) implied by a task-to-partition map
    alone: each task edge's bandwidth times the number of partition
    boundaries between its endpoints. On a map that respects eq. 2 this
    is eq. 14's objective, [sum bw * (p(t2) - p(t1))], and it is how
    eq. 3 counts the edge's scratch memory: once at every boundary it
    spans. *)

val to_vector : Vars.t -> t -> float array
(** Full model-variable assignment realizing the design: primary
    variables ([y], [x]) directly, and every secondary variable
    ([w, u, o, c, z, s]) at its forced value. The result is feasible for
    the formulation whenever the design is valid — used to inject
    scheduler-completed incumbents into the branch and bound, and by
    the tests to check the formulation against known-good designs. *)

val validate : Spec.t -> t -> (unit, string list) result
(** Checks, against the specification's original semantics:
    partition range and temporal order (eq. 2); scratch memory at every
    boundary (eq. 3); schedule windows, unit capability, instance
    exclusivity (eqs. 6, 7), dependencies (eq. 8); per-partition FPGA
    capacity over the units actually used (eq. 11); control-step
    exclusivity between partitions (eq. 13); and that [comm_cost] /
    [partitions_used] match the partition map. Returns all violations
    found. *)

val pp : Spec.t -> Format.formatter -> t -> unit
(** Human-readable report: partitions with their tasks, FUs and steps
    used, schedule table, communication summary. *)
