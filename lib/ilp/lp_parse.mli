(** Parser for the CPLEX-LP dialect emitted by {!Lp_format}.

    Together with {!Lp_format} this closes the loop with external
    solvers: models can be exported, solved elsewhere (the paper used
    [lp_solve]), re-imported and cross-checked. The grammar covers the
    subset {!Lp_format} produces: an objective section, [Subject To],
    optional [Bounds], [General] and [Binary] sections, and [End].
    Comments start with [\\]. *)

val of_string : string -> Lp.t
(** Raises [Invalid_argument] with a line number on malformed input. *)

val roundtrip_equal : Lp.t -> Lp.t -> bool
(** Structural equality useful for tests: same variables (name, kind,
    bounds), same rows (terms, sense, rhs) and same objective. *)
