(** CPLEX-LP-format writer.

    Serializes an {!Lp.t} so models can be inspected by hand or fed to an
    external solver for cross-checking (the original paper used
    [lp_solve]; the emitted format is the widely supported CPLEX LP
    dialect). *)

val to_string : Lp.t -> string
(** Render the model. Variables appear under [Bounds] only when their
    bounds differ from the default [0 <= x]. Integer and binary
    variables are listed under [General] / [Binary]. *)

val pp : Format.formatter -> Lp.t -> unit
