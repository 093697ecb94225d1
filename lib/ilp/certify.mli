(** Exact a-posteriori certification of simplex verdicts.

    The floating-point solver's answers are claims; this module turns
    them into checked artifacts. Given a {!Simplex.snapshot} of the
    final basis and the {!Simplex.result} it produced, the verdict is
    re-derived in exact rational arithmetic ({!Rat}):

    - {b Optimal}: the basic system [B x_B = b - N x_N] is re-solved
      exactly ({!basis_solve}), primal feasibility of the basic values
      is checked against the bounds exactly, and the exact simplex
      multipliers [y = B^-T c_B] give the Lagrangian dual bound
      [L(y) = y.b + sum_j min over the bound interval of (c_j - y.a_j) x_j].
      The gap [c.x - L(y)] is precisely the complementary-slackness
      residual: it is [0] exactly iff the basis is exactly optimal.
    - {b Infeasible}: the recorded witness ({!Simplex.infeasibility})
      is re-derived exactly as a Farkas ray [y] and checked as
      [y.b > max over the box of y.Ax] — a proof no feasible point
      exists, independent of any floating-point computation.

    The cost follows the certificate, not the model: only the
    structural nucleus of the basis is factorized, and the sums over
    columns ([y.a_j] in the dual bound and the Farkas check) convert a
    coefficient only where it meets a nonzero [y_i].

    Every check classifies as {!Certified}, {!Refuted} (the claim is
    wrong by more than the tolerance — e.g. a corrupted solution), or
    {!Uncertifiable} (nothing provable either way: singular basis in
    rationals, missing witness, nonzero-but-tiny exact residuals), with
    a typed {!detail} saying why. *)

type verdict = Certified | Refuted | Uncertifiable

type detail =
  | Exact_optimum of { obj : Rat.t }
      (** The basis is exactly optimal: exact primal feasibility, exact
          dual feasibility, zero complementary-slackness gap. [obj] is
          the true LP optimum (minimization-oriented). *)
  | Optimal_within of { obj : Rat.t; dual_bound : Rat.t; gap : float }
      (** Exact primal value [obj] and exact dual bound sandwich the
          optimum; the (exact, here rounded) gap is below the
          certification tolerance, as is any exact bound residual of
          the basic point (floating-point bases are routinely a few
          ulps outside a bound; the dual bound holds regardless). *)
  | Farkas_proof of { gap : Rat.t; witness_row : int; support : int list }
      (** Exact infeasibility proof: the ray's combination of the
          [support] rows exceeds what the variable box allows by [gap]
          (> 0, exact). [witness_row] is the reporting row from
          {!Simplex.farkas}. *)
  | Bound_violation of { column : int; violation : float }
      (** The exact basic solution violates a column bound by more than
          the tolerance ([column] is an internal index: structural, or
          [nstruct + i] for the slack of row [i]). Always {!Refuted}:
          sub-tolerance exact violations continue on to the dual bound
          instead. *)
  | Objective_mismatch of { exact : Rat.t; reported : float }
      (** The reported objective is not the basis's exact objective —
          the signature of a corrupted or mismatched solution. *)
  | Dual_gap of { gap : float }
      (** Exact primal value fine, but the dual bound leaves a gap
          above the tolerance: optimality is unproven (though not
          disproven). *)
  | Invalid_ray of { shortfall : float }
      (** The claimed Farkas ray does not prove infeasibility: its
          exact gap is [<= 0] (or it leans on a column with no finite
          bound on the needed side, [shortfall = neg_infinity]). *)
  | Singular_basis  (** The final basis is exactly singular. *)
  | No_certificate of string
      (** The status carries no certifiable claim (unbounded,
          iteration limit, missing witness). *)

type t = {
  verdict : verdict;
  detail : detail;
}

val check : Simplex.snapshot -> Simplex.result -> t
(** Certifies [result] against the basis in [snapshot]. The snapshot
    must come from the same engine, immediately after the solve that
    produced [result]. A tolerance of [1e-6] separates {!Certified}
    from {!Uncertifiable} on near-zero exact residuals, and
    {!Uncertifiable} from {!Refuted} on material violations; the exact
    values in the {!detail} are unaffected by it. *)

val basis_solve :
  Simplex.snapshot ->
  rhs:Rat.t array ->
  cost:Rat.t array ->
  (Rat.t array * Rat.t array) option
(** The exact basis solve both checks run on: [Some (x, y)] with
    [B x = rhs] ([rhs] by row, [x] by basis slot) and [B^T y = cost]
    ([cost] by slot, [y] by row), for the basis matrix [B] of the
    snapshot; [None] when [B] is exactly singular. Slack and artificial
    slots fix their row directly, so only the structural nucleus (the
    structural slots against the rows no slack or artificial slot
    covers) is factorized. *)

val check_lp : Lp.t -> Simplex.result * t
(** One-shot: solve the LP relaxation fresh and certify the outcome.
    Used for stand-alone Farkas certificates of infeasible models. *)

val map_rows : (int -> int) -> t -> t
(** Remaps constraint-row indices in the certificate ({!Farkas_proof}
    support and witness) — e.g. from presolved-model rows back to
    original-model rows via {!Presolve.stats.row_map}, or from an IIS
    subsystem back to the full model. *)

val verdict_name : verdict -> string
(** ["certified"], ["refuted"], ["uncertifiable"]. *)

val exit_code : verdict -> int
(** CLI convention: 0 certified, 1 refuted, 2 uncertifiable. *)

val kind_name : detail -> string
(** The detail family as a snake_case atom (["exact_optimum"],
    ["farkas_proof"], …) — the [kind] field of {!to_json} and of
    {!Trace.Cert_check} events. *)

val describe : t -> string
(** One-line human rendering: verdict, reason, exact values. *)

val to_json : ?row_name:(int -> string) -> t -> Json.t
(** Certificate as JSON: verdict, kind, exact values as decimal
    rational strings, float approximations, and involved rows (named
    through [row_name] when given). Schema in docs/VERIFICATION.md. *)

val pp : Format.formatter -> t -> unit
