(** Problem instances for combined temporal partitioning and synthesis.

    A specification bundles the behavioral task graph with the target
    FPGA's cost metrics and the design-exploration parameters of the
    paper's Section 3: the functional-unit set [F] (an allocation), the
    resource capacity [C], the logic-optimization factor [alpha], the
    scratch memory size [Ms], the latency relaxation [L] and the upper
    bound [N] on the number of temporal partitions. *)

type tables
(** Lookup tables derived from the allocation, built once by {!make}:
    the instance array, each instance's latency, busy span, [FG] and
    pipelined flag, each operation's capable instances and the
    allocation's unit kinds with their counts. [Spec.t] is private, so
    {!make} is its only constructor and the tables cannot go stale. The
    accessors below read them in O(1). *)

type t = private {
  graph : Taskgraph.Graph.t;
  allocation : Hls.Component.allocation;  (** The exploration set [F]. *)
  capacity : int;  (** FPGA resource capacity [C] (function generators). *)
  alpha : float;  (** Logic-optimization factor in (0, 1]. *)
  scratch : int;  (** Scratch memory [Ms] (data units). *)
  latency_relax : int;  (** Relaxation [L] over the maximum ALAP. *)
  num_partitions : int;  (** Partition upper bound [N] (>= 1). *)
  schedule : Hls.Schedule.t;  (** Precomputed ASAP/ALAP (Figure 2 flow). *)
  tables : tables;
}

val make :
  graph:Taskgraph.Graph.t ->
  allocation:Hls.Component.allocation ->
  ?capacity:int ->
  ?alpha:float ->
  ?scratch:int ->
  ?latency_relax:int ->
  num_partitions:int ->
  unit ->
  t
(** Validates and precomputes the ASAP/ALAP schedule. Defaults:
    [capacity] fits the whole allocation ([alpha * total_fg], i.e.
    non-binding), [alpha = 0.7] (mid-range of the paper's 0.6-0.8),
    [scratch = 64]. Raises [Invalid_argument] when the allocation does
    not cover the graph's operation kinds, [alpha] is outside (0, 1],
    or a parameter is negative. *)

val instances : t -> Hls.Component.instance array
(** The concrete functional units of [F], by instance id. The array is
    the one the spec's tables share, not a copy: read it, never write
    to it. *)

val fu_of_op : t -> Taskgraph.Graph.op_id -> int list
(** The paper's [Fu(i)]: instance ids able to execute operation [i], in
    ascending order. Never empty. *)

val ops_of_fu : t -> int -> Taskgraph.Graph.op_id list
(** The paper's [Fu^-1(k)]: operations executable on instance [k]. *)

val window : t -> Taskgraph.Graph.op_id -> int * int
(** The paper's [CS(i)] (issue steps) including the latency relaxation.
    Computed with each operation's minimum latency over its capable
    units, so it is a superset of any concrete binding's window. *)

val num_steps : t -> int
(** Number of control steps [1 .. cp_length + L]. *)

val num_instances : t -> int

val fg_of_instance : t -> int -> int
(** [FG(k)] for instance [k]. *)

val instance_latency : t -> int -> int
(** Issue-to-result latency of instance [k] in control steps. *)

val instance_pipelined : t -> int -> bool

val busy_span : t -> int -> int
(** Steps instance [k] stays busy per operation: [1] when pipelined,
    its latency otherwise. *)

val unit_groups : t -> (Hls.Component.fu_kind * int) list
(** The allocation's unit kinds with their total instance counts, one
    entry per kind name. *)

val pp : Format.formatter -> t -> unit
