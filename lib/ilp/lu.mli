(** Sparse LU factorization of a simplex basis, with eta-file updates.

    A {!t} represents the basis matrix [B] whose columns are
    [a.(basis.(0)) .. a.(basis.(m-1))] of a CSC constraint matrix, as an
    LU factorization computed with threshold Markowitz pivoting (the
    pivot minimizes the Markowitz fill bound
    [(col_nnz - 1) * (row_nnz - 1)] among entries within a factor
    [tau = 0.1] of their column's largest magnitude), plus a product-form
    {e eta file} appended by {!update} after each basis exchange.

    Index conventions, matching {!Simplex}: a {e row} is a constraint
    index of the LP; a {e slot} is a position in the basis array (the
    basic variable of slot [i] is [basis.(i)]). {!ftran} maps a
    row-indexed right-hand side to a slot-indexed solution; {!btran} maps
    a slot-indexed cost vector to a row-indexed multiplier vector.

    The factorization is exact up to a drop tolerance of [1e-13] on
    cancelled Schur-complement entries; accumulated eta-file error is the
    caller's concern ({!Simplex} refactorizes on an eta-length bound and
    on residual checks).

    A [t] is also a reusable workspace: {!refactor} refills it in place
    and {!update} appends to its eta file, so once a basis of a given
    shape has been factored and updated, neither allocates, and neither
    do the solves. {!Simplex} keeps one workspace per engine.

    {b Single-domain ownership is enforced, not advisory}: solves share
    one internal scratch buffer and a mutable eta file, so a [t] is
    stamped with the id of the domain that created it ({!create} or
    {!factor}), and {!refactor}/{!ftran}/{!btran}/{!update} raise
    [Invalid_argument] when called from any other domain. Parallel
    search gives each worker domain its own {!Simplex} engine (hence its
    own [t]); see [Branch_bound.options.jobs]. *)

type t

exception Singular
(** The basis is numerically singular: no acceptable pivot (magnitude
    [>= 1e-11]) remains, or {!update} was given a pivot below that
    threshold. *)

val factor :
  ?trace:Trace.writer ->
  ?metrics:Metrics.shard ->
  Sparse.Csc.mat ->
  int array ->
  t
(** [factor a basis] factorizes the [m x m] basis matrix, where
    [m = Array.length basis] and each [basis.(j)] names a column of
    [a]. The eta file starts empty. The pivot search keeps the active
    columns and rows in Suhl-Suhl-style count buckets over doubly-linked
    lists: it visits only the lowest-count buckets (early exit once no
    unseen candidate can have cost below [(k-1)^2], bounded candidate
    probes) and eliminations splice in O(entries touched). Raises
    {!Singular}; raises
    [Invalid_argument] when [a]'s row dimension differs from [m].
    When [trace] is an active writer a {!Trace.Lu_factor} event (basis
    dimension, fill, pivot-search probes, wall time) is emitted on
    completion; when a [metrics] shard is given the probe count is
    added to {!Metrics.C_lu_probes}. Equivalent to {!refactor} into a
    fresh {!create}[ m]. *)

val create : int -> t
(** [create m] is an empty workspace for [m x m] bases, owned by the
    calling domain. It holds no factorization until {!refactor}: solves
    and updates on it are meaningless before then. *)

val refactor :
  ?trace:Trace.writer ->
  ?metrics:Metrics.shard ->
  t ->
  Sparse.Csc.mat ->
  int array ->
  unit
(** [refactor lu a basis] is {!factor}[ a basis] computed into [lu]'s
    storage: it discards [lu]'s factorization and eta file and performs
    exactly the same floating-point operations as a fresh {!factor}, so
    every later solve is bit-identical to one on a fresh factorization.
    Storage grows (to twice what is needed) only when the basis needs
    more room than any earlier one. Raises {!Singular} like {!factor}, leaving [lu]
    without a factorization until the next successful call; raises
    [Invalid_argument] when [basis] or [a]'s row dimension is not
    {!size}[ lu], or from a domain other than the creating one. *)

val ftran : t -> float array -> unit
(** [ftran lu b] solves [B x = b] in place: on entry [b] is a dense
    right-hand side indexed by row; on exit it holds [x] indexed by
    slot. Applies L, U, then the eta file oldest-first. Raises
    [Invalid_argument] from a domain other than the factoring one. *)

val btran : t -> float array -> unit
(** [btran lu c] solves [B^T y = c] in place: on entry [c] is indexed
    by slot (a basic-cost vector); on exit it holds [y] indexed by row
    (simplex multipliers). Applies the eta file newest-first, then U^T
    and L^T. *)

val ftran_sparse : t -> float array -> int array -> int -> int
(** [ftran_sparse lu b pat n] is {!ftran} for a {e sparse} right-hand
    side: [b] is dense but its nonzeros are exactly the rows
    [pat.(0 .. n-1)] (every other entry must be [0.]). The solve visits
    only the elimination steps reachable from those rows
    (Gilbert-Peierls reachability over the factor's dependency graph:
    the reached steps are stamped, then visited by one sweep in
    elimination order), so its cost is proportional to the span of the
    steps it reaches rather than to [m] plus the factor's fill. The
    result equals {!ftran}'s entry by entry (an exact zero may differ
    in sign): the steps it skips would only have added exact zeros.

    Returns [c >= 0]: the solution's nonzeros are among the slots
    [pat.(0 .. c-1)], each listed once (the pattern is conservative —
    listed entries may hold exact zeros — but complete). The slots of
    the triangular solve come first, in decreasing elimination-step
    order, followed by any slots the eta file added. Returns [-1] when
    the input was too dense for the sparse sweep to win; the solve then
    fell through to the dense {!ftran} kernel and no pattern is
    available. [pat] must have length at least [m]. *)

val btran_sparse : t -> float array -> int array -> int -> int
(** [btran_sparse lu c pat n] is {!btran} for a sparse slot-indexed
    input with nonzeros [pat.(0 .. n-1)]; same contract as
    {!ftran_sparse}. On a non-negative return the result's nonzero rows
    are among [pat.(0 .. c-1)], each listed once, in decreasing
    elimination-step order. The unit-vector right-hand sides of
    dual pricing ([B^T rho = e_r]) are the main beneficiary. *)

val update : t -> w:float array -> r:int -> unit
(** [update lu ~w ~r] appends a product-form eta for a basis exchange
    in slot [r], where [w] is the {e transformed} entering column
    ([ftran] of the entering column, slot-indexed). After the update,
    {!ftran}/{!btran} solve against the new basis. An exact-identity
    exchange ([w.(r) = 1.] with no other stored entry) is skipped: it
    is a no-op in every later solve, so nothing is appended and
    {!eta_count} does not grow. Raises {!Singular} when [|w.(r)|] is
    below the pivot tolerance. *)

val size : t -> int
(** Basis dimension [m]. *)

val pivot_order : t -> (int * int) array
(** The elimination history: entry [k] is [(row, slot)] — step [k]
    eliminated constraint row [row] against basis slot [slot]. This is
    the Markowitz order actually used by the factorization. Only
    meaningful for the basis as of {!factor} (the eta file is not
    reflected). *)

val eta_count : t -> int
(** Number of etas appended since {!factor} (identity exchanges are
    not stored, see {!update}). *)

val eta_nnz : t -> int
(** Total off-pivot entries stored in the eta file — the work a dense
    solve pays per pass over it. {!Simplex} uses it (next to
    {!eta_count}) to decide when refactorizing is cheaper than
    continuing to drag the eta file through every solve. *)

val fill : t -> int
(** Stored entries of [L] and [U] (diagonal included) — the fill-in
    measure reported by solver statistics. *)
