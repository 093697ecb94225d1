(** Designer-facing reports of synthesized designs.

    Renders a solved instance the way a synthesis tool would present
    it: a control-step Gantt chart per functional unit with the
    partition boundaries marked, per-partition resource and register
    summaries, and the reconfiguration data traffic. *)

val gantt : Spec.t -> Solution.t -> string
(** ASCII chart: one row per functional-unit instance, one column per
    control step; each cell shows the operation executing there (its id
    in base 36 to keep columns narrow, ['-'] while a multicycle
    operation holds the unit, ['.'] when idle). A header row marks which
    partition owns each step. *)

val summary : Spec.t -> Solution.t -> string
(** Multi-line textual summary: per partition — tasks, functional units
    used with their FG total, control steps owned, registers needed
    (from {!Registers}); plus the scratch-memory traffic at every
    boundary. *)

val full : Spec.t -> Solution.t -> string
(** {!summary} followed by {!gantt}. *)

val certification : ?row_name:(int -> string) -> Ilp.Branch_bound.stats -> Ilp.Json.t
(** The root certificate, when kept, as a JSON object [{"root": …}]
    rendered through {!Ilp.Certify.to_json} (rows named via
    [row_name]), embedded in [tpart solve --certify --json] reports
    beside the verdict counters of [stats.metrics]. Schema in
    docs/VERIFICATION.md. *)

val incumbent_timeline : Ilp.Branch_bound.stats -> Ilp.Json.t
(** The solver's incumbent timeline as a JSON array of
    [{"t": seconds, "obj": objective, "node": id, "source": name}]
    objects, in installation order — the convergence series of the
    search, embedded in [tpart solve --json] reports. [source] is one
    of ["search"] or ["hook"] (see
    {!Ilp.Trace.incumbent_source_name}). *)

val bound_timeline : Ilp.Branch_bound.stats -> Ilp.Json.t
(** The solver's dual-bound timeline as a JSON array of
    [{"t": seconds, "bound": value}] objects, in improvement order —
    the other half of the gap-convergence pair (the last entries of
    the two timelines reconstruct the final gap). Mirrors
    {!Ilp.Branch_bound.stats.bound_timeline}; non-finite bounds render
    as [null]. *)
