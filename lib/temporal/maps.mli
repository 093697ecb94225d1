(** Task-to-partition maps: the rules that decide which maps are
    admissible.

    A map is an [int array] indexed by task, giving each task's
    partition in [1..N]. A {e partial} map leaves some tasks at [0]
    (undecided). Every rule below reads partial maps and ignores the
    undecided tasks, so it bounds every completion of the decided
    ones; on a full map it is exact.

    This module owns the order (eq. 2), scratch-memory (eq. 3) and
    step-counting rules. The exhaustive solver ({!Enumerate}), the
    completion hook ({!Solver.scheduler_hook}) and {!Solution} all read
    them from here. {!Formulation} states the same rules as model rows,
    and {!Solution.validate} keeps its own order check; both are the
    independent statements these are compared against. *)

val respects_order : Spec.t -> int array -> bool
(** Eq. 2 on every task edge whose two tasks are decided:
    [part(t1) <= part(t2)]. *)

val memory_demand : Spec.t -> int array -> int -> int
(** [memory_demand spec part p] is the left-hand side of eq. 3 at the
    boundary before partition [p]: the bandwidth of every edge with
    [0 < part(t1) < p <= part(t2)]. *)

val memory_peak : Spec.t -> int array -> int
(** {!memory_demand}, maximized over the boundaries [2..N]. *)

val steps_lower_bound : Spec.t -> int array -> int
(** Lower bound on the control steps the decided tasks need. Partitions
    own disjoint steps, so the bound is a sum over partitions of the
    larger of (a) the longest dependency chain inside the partition and
    (b) the best per-kind serialization, [ceil(ops / capable units)],
    that a unit subset fitting the capacity allows. [max_int] when some
    partition's kinds cannot be covered within the capacity at all. *)

val refuted : Spec.t -> int array -> bool
(** No completion of the map is a design: it breaks eq. 2 on a decided
    edge, its memory peak exceeds [Ms], or its step bound exceeds
    [Spec.num_steps]. *)

val fold :
  max_assignments:int -> Spec.t -> (int array -> 'a -> 'a) -> 'a -> 'a
(** [fold ~max_assignments spec f init] applies [f] to every full map
    that respects eq. 2, each once. Tasks are placed in
    {!Taskgraph.Topo.task_order}, each in increasing partition from the
    largest partition of its predecessors, so the maps come in
    lexicographic order of that task sequence. [f] sees one array that
    the walk keeps mutating: copy it to keep it. Raises
    [Invalid_argument] on the map after the first [max_assignments]. *)
