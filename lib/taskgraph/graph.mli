(** Task graphs: the behavioral specification of the paper's Section 3.

    A specification is a DAG of {e tasks}; each task owns a DAG of
    {e operations}. Dependency edges exist both between operations
    (within and across tasks) and, derived from the cross-task operation
    edges, between tasks. Each task edge carries a {e bandwidth}: the
    number of data units that must be stored in the scratch memory when
    the two tasks land in different temporal partitions.

    Graphs are immutable once {!build} succeeds; construct them through
    a {!builder}. *)

type op_kind = Add | Sub | Mul | Div | Cmp

val op_kind_to_string : op_kind -> string

val all_op_kinds : op_kind list

type task_id = int
type op_id = int

type t

(** {1 Construction} *)

type builder

val builder : ?name:string -> unit -> builder

val add_task : builder -> ?name:string -> unit -> task_id

val add_op : builder -> task:task_id -> op_kind -> op_id
(** Adds an operation to a task. Raises [Invalid_argument] on an unknown
    task. *)

val add_op_dep : builder -> op_id -> op_id -> unit
(** [add_op_dep b i1 i2] records the dependency [i1 -> i2] (the result of
    [i1] is an input of [i2]). Cross-task dependencies imply a task edge.
    Raises [Invalid_argument] on unknown ids or a self-loop. *)

val set_bandwidth : builder -> task_id -> task_id -> int -> unit
(** Overrides the bandwidth of the task edge [t1 -> t2]. Without an
    override, the bandwidth defaults to the number of operation edges
    crossing from [t1] to [t2]. The edge must exist at {!build} time
    (i.e. at least one crossing operation dependency), otherwise
    {!build} raises. *)

val build : builder -> t
(** Validates and freezes the graph. Raises [Invalid_argument] when the
    operation graph has a cycle, a task is empty, a bandwidth override
    mentions a non-edge, or the implied task graph has a cycle (which
    follows from the operation DAG plus task ownership). *)

(** {1 Accessors} *)

val name : t -> string

val num_tasks : t -> int

val num_ops : t -> int

val task_name : t -> task_id -> string

val task_ops : t -> task_id -> op_id list
(** Operations of a task, in insertion order. Never empty. *)

val op_kind : t -> op_id -> op_kind

val op_task : t -> op_id -> task_id

val op_deps : t -> (op_id * op_id) list
(** All operation dependency edges [i1 -> i2]. *)

val op_preds : t -> op_id -> op_id list

val op_succs : t -> op_id -> op_id list

val task_edges : t -> (task_id * task_id * int) list
(** Task dependency edges with bandwidths. *)

val task_preds : t -> task_id -> task_id list

val task_succs : t -> task_id -> task_id list

val kind_counts : t -> (op_kind * int) list
(** Number of operations of each kind present in the graph. *)

val total_bandwidth : t -> int
(** Sum of all task-edge bandwidths (an upper bound on any cut). *)

val pp_summary : Format.formatter -> t -> unit
