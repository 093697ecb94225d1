(** Characterized component library.

    Functional units are characterized by the FPGA resources they
    occupy (function generators, the [FG(k)] of the paper's resource
    constraint, eq. 11) and a propagation delay. The default library
    models XC4000-class 16-bit datapath components; the paper used a
    Synopsys library whose exact numbers are not published, so these
    are representative substitutes (see DESIGN.md).

    A {e functional-unit instance} is one concrete unit available for
    binding; an {!allocation} is the multiset of instances used for
    design exploration (the paper's "A+M+S" columns). *)

type fu_kind = {
  fu_name : string;
  executes : Taskgraph.Graph.op_kind list;
  fg : int;  (** Function generators occupied. *)
  delay_ns : float;  (** Propagation delay (informational). *)
  latency : int;
      (** Control steps from operand issue to result (>= 1). The paper's
          base model assumes 1; the multicycle extension of Section 3.3
          is supported throughout. *)
  pipelined : bool;
      (** A pipelined unit accepts a new operation every control step
          even while earlier ones are in flight; a non-pipelined unit is
          busy for all [latency] steps. Irrelevant when [latency = 1]. *)
}

type library = fu_kind list

val default_library : library
(** Single-cycle units: [add16], [sub16], [alu16] (add or sub — two FU
    types can implement the same operation, the exploration the paper
    highlights over Gebotys' model), [mul16], [mul16s] (smaller, slower
    multiplier), [div16], [cmp16]. Multicycle units (the Section 3.3
    extension): [mul16p2] (2-stage pipelined multiplier), [mul16seq]
    (3-cycle blocking multiplier), [div16seq] (4-cycle blocking
    divider). *)

val find : library -> string -> fu_kind
(** Raises [Not_found]. *)

val can_execute : fu_kind -> Taskgraph.Graph.op_kind -> bool

val kinds_for : library -> Taskgraph.Graph.op_kind -> fu_kind list
(** All FU kinds of the library able to execute an operation kind. *)

(** {1 Allocations} *)

type allocation = (fu_kind * int) list
(** FU kind with its instance count; counts must be positive. *)

type instance = { inst_kind : fu_kind; inst_id : int }
(** One concrete functional unit. [inst_id] is unique across the
    allocation and indexes the paper's set [F]. *)

val instances : allocation -> instance array
(** Expands an allocation into concrete instances, in allocation order.
    Raises [Invalid_argument] on non-positive counts. *)

val total_fg : allocation -> int

val ams : int * int * int -> allocation
(** [ams (a, m, s)] is the paper's "A+M+S" shorthand: [a] adders,
    [m] multipliers, [s] subtracters from {!default_library}. *)

val covers : allocation -> Taskgraph.Graph.t -> bool
(** Whether every operation kind appearing in the graph has at least one
    capable instance. *)

val pp_allocation : Format.formatter -> allocation -> unit
