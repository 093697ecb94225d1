(** The 0-1 model: constraints and cost function.

    Generates the paper's final mixed 0-1 linear model (Section "Non-
    Linear 0-1 model" through Section 6): partitioning constraints
    (eqs. 1-3), synthesis constraints (eqs. 6-8), the combined
    partitioning/synthesis coupling (eqs. 9-13 after linearization:
    19-23, 26-27), the compact communication linearization (eq. 31),
    the resource constraint (eq. 11), the optional tightening cuts
    (eqs. 28-30, 32) and the communication cost function (eq. 14).

    Deviations from the literal text (documented in DESIGN.md):
    - eq. 7 is generated per (step, functional unit) — the paper's
      printout omits the per-unit quantifier, which would make two
      different units conflict;
    - eq. 23 is generated as [sum_t z_ptk >= u_pk] — the paper prints
      [<= 0] for what must be the [u = 0 if unused] direction of
      eq. 10;
    - eq. 29's sum runs over [p < p1] (strict): including [p = p1], as
      printed, would force [w_p1t1t2 = 0] even when the boundary [p1]
      {e is} crossed ([t2] placed exactly at [p1]);
    - the control-step-exclusion (eq. 13) defaults to a compact
      formulation with per-(partition, step) claim variables
      [s_pj >= c_tj + y_tp - 1] and [sum_p s_pj <= 1]; the literal
      quartic-size pairwise form is available via
      [literal_cs_exclusion]. *)

type linearization = Vars.linearization = Fortet | Glover

type options = Vars.options = {
  linearization : linearization;
  tighten : bool;
  literal_cs_exclusion : bool;
  aggregate_o : bool;
  step_cuts : bool;
}
(** The model's options, documented at {!Vars.options}; the built
    model records them in {!Vars.t}[.options]. *)

val default_options : options
(** Glover linearization, tightening on, compact exclusion, step cuts —
    the production configuration. *)

val base_options : options
(** The paper's Table 1 configuration: Glover, {e no} tightening cuts,
    no step cuts, compact exclusion. *)

val tightened_options : options
(** The paper's Table 2 (and final-model) configuration: Section 6
    tightening cuts, no step cuts. *)

val build : ?options:options -> Spec.t -> Vars.t
(** Generates variables, constraints and the cost function. The
    resulting model minimizes total inter-partition communication. *)

val explain_w : Spec.t -> (int * int * int * string) list
(** The Figure 3 / Figure 4 walkthrough: for every communication
    variable [w_pt1t2] of the spec, a human-readable rendering of its
    defining inequality (eq. 31). Ordered by [(p, t1, t2)]. *)
