(** Decision-variable management for the 0-1 model.

    Creates and indexes every variable family of the paper's
    formulation:

    - [y_tp] — task [t] placed in partition [p] (binary, eq. set 3.1);
    - [x_ijk] — operation [i] at control step [j] on functional unit [k]
      (binary); only pairs with [j] in [CS(i)] and [k] in [Fu(i)] exist;
    - [w_pt1t2] — the edge [(t1, t2)] crosses the boundary of partition
      [p], for [p] in [2..N] (binary);
    - [u_pk] — functional unit [k] used in partition [p] (binary);
    - [o_tk] — task [t] uses functional unit [k] (binary); only created
      when some operation of [t] can execute on [k];
    - [c_tj] — task [t] has an operation at step [j] (continuous in
      [0,1]: it is a derived indicator forced by the binaries, so
      relaxing it preserves the model's integer solutions while keeping
      it out of the branching set);
    - [z_ptk] — linearization product [y_tp * o_tk]; continuous under
      the Glover-Wolsey linearization, binary under Fortet's;
    - [s_pj] — (compact control-step exclusion only, see
      {!Formulation}) partition [p] claims control step [j]
      (continuous). *)

type linearization =
  | Fortet  (** Binary product variables, eqs. 15-16. *)
  | Glover  (** Continuous product variables, eqs. 15, 17-18 — tighter. *)

type options = {
  linearization : linearization;
  tighten : bool;  (** Add the cuts of Section 6 (eqs. 28-30, 32). *)
  literal_cs_exclusion : bool;
      (** Use the paper's pairwise eq. 13 instead of the compact
          step-claim encoding. *)
  aggregate_o : bool;
      (** Generate eq. 26 aggregated per (operation, unit) —
          [o_tk >= sum_j x_ijk] — instead of the paper's one row per
          (operation, step, unit). Valid because eq. 6 schedules each
          operation exactly once; tighter and smaller. Off in the
          paper-faithful configurations. *)
  step_cuts : bool;
      (** Our addition beyond the paper (requires the compact
          exclusion): valid inequalities linking the step-claim
          variables to the partition assignment — a partition owning a
          task owns at least the task's intra-critical-path many steps,
          and the operations assigned to a partition cannot exceed its
          owned steps times the (per-kind) functional-unit count. They
          shrink the pure-feasibility search dramatically; ablated in
          the benchmarks. *)
}
(** The formulation's options; {!Formulation} re-exports them with its
    presets. *)

type t = {
  spec : Spec.t;
  options : options;  (** The options the model was built with. *)
  lp : Ilp.Lp.t;
  y : Ilp.Lp.var array array;  (** [y.(t).(p-1)] *)
  x : (int * int * Ilp.Lp.var) list array;
      (** [x.(i)] lists [(step, instance, var)] in window order. *)
  w : (int * int * int, Ilp.Lp.var) Hashtbl.t;  (** keyed [(p, t1, t2)] *)
  u : Ilp.Lp.var array array;  (** [u.(p-1).(k)] *)
  o : Ilp.Lp.var option array array;  (** [o.(t).(k)], [None] if impossible *)
  c : Ilp.Lp.var option array array;  (** [c.(t).(j-1)] *)
  z : Ilp.Lp.var option array array array;
      (** [z.(p-1).(t).(k)]; [None] where [o] is [None]. *)
  s : Ilp.Lp.var array array option;  (** [s.(p-1).(j-1)] *)
}

val create : options:options -> Spec.t -> t
(** Builds the [Lp.t] and all variables, no rows. Fortet's
    linearization makes the [z] products binary; the compact
    control-step exclusion (no [literal_cs_exclusion]) creates the
    [s_pj] family. *)

val w_var : t -> int -> int -> int -> Ilp.Lp.var
(** [w_var t p t1 t2]; raises [Not_found] on a non-edge or [p < 2]. *)

val y_value : t -> float array -> Taskgraph.Graph.task_id -> int
(** Partition (1-based) of a task in a solution vector: the [p]
    maximizing [y_tp] (ties to the smallest [p]). *)

val x_value : t -> float array -> Taskgraph.Graph.op_id -> int * int
(** [(step, instance)] chosen for an operation: the pair whose variable
    is largest. *)

val num_vars : t -> int

val num_constrs : t -> int
