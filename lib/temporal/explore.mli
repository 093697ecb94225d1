(** Design-space exploration over the latency relaxation and partition
    bound.

    Automates what the paper's Table 3 does by hand: sweep (N, L)
    design points, solve each exactly, and report the trade-off
    frontier between schedule length (the latency relaxation L) and
    reconfiguration cost (the optimal communication). *)

type point = {
  latency_relax : int;
  num_partitions : int;  (** The bound N used for the sweep point. *)
  outcome : [ `Optimal of Solution.t | `Infeasible | `Timeout ];
  seconds : float;  (** Wall clock spent on this point. *)
}

val sweep :
  ?time_limit_per_point:float ->
  ?jobs:int ->
  graph:Taskgraph.Graph.t ->
  allocation:Hls.Component.allocation ->
  ?capacity:int ->
  ?alpha:float ->
  ?scratch:int ->
  latency_range:int * int ->
  partition_range:int * int ->
  unit ->
  point list
(** Solves every (L, N) combination in the inclusive ranges with the
    default formulation and solver settings; the result list is always
    in increasing (L, N) order. Default per-point limit:
    120 s. [jobs] (default 1) solves that many design points
    concurrently, one worker domain per point — each point's own tree
    search stays sequential, and the per-point time limit is unchanged.
    Raises [Invalid_argument] when [jobs < 1]. *)

val pareto : point list -> point list
(** The non-dominated optimal points: a point dominates another when it
    has both smaller-or-equal L and smaller-or-equal communication cost
    (and is strictly better in one). Infeasible/timeout points are
    dropped; among equal (L, cost), the smaller N is kept. *)

val pp_table : Format.formatter -> point list -> unit
(** Fixed-width table of a sweep, one row per point. *)
