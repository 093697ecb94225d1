(** Formulation-specific invariants of the paper's 0-1 model.

    {!Ilp.Analyze} certifies generic structural soundness of any
    {!Ilp.Lp.t}; this module checks that a model allegedly produced by
    {!Formulation.build} actually has the paper's shape for the given
    {!Spec.t} and {!Formulation.options}:

    - exactly one [uniq_t*] set-partitioning row per task (eq. 1), with
      unit coefficients, sense [=] and right-hand side 1;
    - one [wdef] row per cut task edge and boundary (eq. 31), one
      [order] row per edge and boundary (eq. 2), [mem]/[cap]/[assign]/
      [map]/[dep]/[excl] families at their closed-form counts;
    - Section 6 tightening rows ([cut28*]/[cut29*]) present if and only
      if [options.tighten], step-ownership cuts if and only if
      [options.step_cuts] (with the compact control-step exclusion);
    - [z] product variables integral under Fortet's linearization and
      continuous under Glover's, as configured;
    - the full variable family ([y]/[x]/[w]/[u]/[o]/[c]/[z]/[s]) present
      by name with the right kinds, and total Var/Const counts matching
      the closed-form census recomputed from the specification (the
      paper's "Var"/"Const" columns).

    All matching is by the names {!Formulation.build} assigns, which is
    why {!Ilp.Lp.duplicate_row_names} must be empty for audited
    models. *)

type finding = {
  severity : Ilp.Analyze.severity;
  code : string;
      (** ["missing-row"], ["duplicate-row"], ["unexpected-row"],
          ["malformed-row"], ["missing-variable"],
          ["unexpected-variable"], ["variable-kind"], ["var-census"],
          ["row-census"]. *)
  message : string;
}

type census = {
  var_families : (string * int) list;
      (** Expected variable counts per family, e.g. [("y", 12)]. *)
  row_families : (string * int) list;
      (** Expected row counts per family; unnamed families (the
          linearization and coupling rows) are listed too. *)
  total_vars : int;
  total_rows : int;
}

type report = {
  findings : finding list;
  census : census;
  actual_vars : int;
  actual_rows : int;
}

val census : options:Formulation.options -> Spec.t -> census
(** The closed-form census alone: what {!Formulation.build} must emit
    for this instance, recomputed independently from the specification
    (windows, latencies, busy spans, task/step occupancy). *)

val audit : options:Formulation.options -> Spec.t -> Ilp.Lp.t -> report
(** Audits a raw model against the invariants above, as if
    {!Formulation.build} had built it from [spec] under [options].
    Findings are deterministic: family by family, names in order. *)

val audit_vars : Vars.t -> report
(** [audit] on a built model, under the spec and options it records. *)

val describe_row : string -> string
(** [describe_row name] phrases a row of the formulation in the paper's
    terms by its name prefix — e.g. ["uniq_t3"] becomes ["uniq_t3: set
    partitioning: the task lies in exactly one partition (eq. 1)"].
    Rows outside the owned families are labelled as
    linearization/coupling rows. Used by [tpart analyze --iis] and the
    certificate reports to name conflicting constraints. *)

val errors : report -> finding list

val is_clean : report -> bool
(** No error-level findings. *)

val pp_report : Format.formatter -> report -> unit

val to_json : report -> Ilp.Json.t
(** The report as a JSON object; print it with {!Ilp.Json.to_string}. *)
