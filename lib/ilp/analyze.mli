(** Static analysis of {!Lp} models: certify structural soundness
    before (or instead of) solving.

    The pass runs in one sweep over the rows and variables — no simplex
    iterations — and emits typed {!diagnostic}s with severities. It
    catches the malformed-model classes that otherwise only surface as a
    silently wrong or slow solve: crossed or non-integral bounds, empty
    and zero-coefficient rows, duplicate and parallel rows, rows decided
    by bound arithmetic alone, dangling variables, and numerically
    ill-conditioned coefficient ranges. Each row is also tagged with a
    structural {!row_class} so a model's row census can be compared
    against an expected formulation shape (see {!Temporal.Audit}). *)

type severity = Error | Warn | Info

val severity_to_string : severity -> string
(** ["error"], ["warn"], ["info"]. *)

type diagnostic = {
  severity : severity;
  code : string;
      (** Stable machine-readable code, e.g. ["crossed-bounds"],
          ["duplicate-row"]. *)
  message : string;
  row : int option;  (** Offending row index, when row-scoped. *)
  var : int option;  (** Offending variable index, when var-scoped. *)
}

(** Structural tag of a row, decided from its (normalized) coefficient
    pattern and the integrality of its support. *)
type row_class =
  | Set_partitioning  (** All-ones over binaries, [= 1]. *)
  | Set_packing  (** All-ones over binaries, [<= 1]. *)
  | Set_covering  (** All-ones over binaries, [>= 1]. *)
  | Precedence
      (** Mixed-sign unit coefficients with zero right-hand side — an
          implication such as [z <= o] or [c >= x]. *)
  | Knapsack  (** Same-sign coefficients, not all-ones, inequality. *)
  | Big_m
      (** Mixed signs with a non-unit coefficient or nonzero rhs — a
          linking / big-M style row. *)
  | Variable_bound  (** A single-term row. *)
  | Other

val row_class_to_string : row_class -> string

val classify_row : Lp.t -> int -> row_class

type coeff_stats = {
  nnz : int;  (** Nonzero coefficients over all rows. *)
  min_abs : float;  (** Smallest nonzero magnitude ([0.] when none). *)
  max_abs : float;
  cond_ratio : float;  (** [max_abs /. min_abs] ([1.] when no terms). *)
  rhs_max_abs : float;
}

type report = {
  model : string;
  nvars : int;
  nrows : int;
  diagnostics : diagnostic list;
      (** In deterministic order: variable checks by index, then row
          checks by index, then cross-row checks by first row index. *)
  census : (row_class * int) list;  (** Row counts per class, sorted. *)
  stats : coeff_stats;
}

val analyze : Lp.t -> report
(** Runs every check. A max/min coefficient-magnitude ratio above
    [1e8] draws a numerical-conditioning warning.

    Error-level findings (the model should not be solved):
    crossed or NaN bounds; a binary variable whose bounds contain no
    integer point; an empty row that its rhs contradicts; a row
    trivially infeasible by bound arithmetic; proportional equality
    rows with contradictory right-hand sides.

    Warn-level: duplicate rows, duplicate row names, zero-coefficient
    terms, binaries with non-\{0,1\} bounds, empty-but-satisfied rows,
    unused variables, conditioning.

    Info-level: parallel (dominated) rows, rows trivially redundant by
    bound arithmetic, an all-zero objective. *)

val certificate_diagnostics : ?iis:bool -> Lp.t -> diagnostic list
(** The certificate diagnostic family — the one check that solves
    rather than sweeps. The LP relaxation is solved once and its
    verdict re-checked in exact rational arithmetic ({!Certify}):

    - [error\[certificate-infeasible\]] — the relaxation is exactly
      infeasible (Farkas certificate checked in rationals); with
      [iis = true] one [error\[iis-row\]] per member of the extracted
      irreducible infeasible subsystem follows ({!Iis});
    - [error\[certificate-refuted\]] — exact arithmetic contradicts the
      float verdict (numerical corruption);
    - [info\[certificate-optimal\]] — the relaxation's optimum is
      certified;
    - [warn\[certificate-unverified\]] — nothing provable either way.

    Integrality is not considered: an LP-feasible model can still be
    integer-infeasible. Diagnostics are row-scoped where a witness row
    exists. *)

val errors : report -> diagnostic list
(** The error-severity subset, in report order. *)

val is_clean : report -> bool
(** No error-level diagnostics (warnings and infos allowed). *)

val pp_diagnostic : Format.formatter -> diagnostic -> unit
(** [severity[code]: message]. *)

val pp_report : Format.formatter -> report -> unit
(** Multi-line human-readable report: sizes, census, coefficient
    statistics and every diagnostic. *)

val to_json : report -> Json.t
(** The report as a JSON object; print it with {!Json.to_string}. *)
