(** Sparse LU factorization of a simplex basis, with Forrest-Tomlin
    updates.

    A {!t} represents the basis matrix [B] whose columns are
    [a.(basis.(0)) .. a.(basis.(m-1))] of a CSC constraint matrix, as an
    LU factorization computed with threshold Markowitz pivoting (the
    pivot minimizes the Markowitz fill bound
    [(col_nnz - 1) * (row_nnz - 1)] among entries within a factor
    [tau = 0.1] of their column's largest magnitude), plus the
    Forrest-Tomlin updates {!update} made after each basis exchange
    (Forrest & Tomlin 1972). An update replaces the U column of the
    exchanged slot by the entering column's {e spike} [L^-1 a_q], moves
    that row and column to the end of U's order, and appends one short
    {e row eta} that eliminates the row's old off-diagonal entries; L
    itself never changes. So an update stores about as many entries as
    the entering column reaches through L, and the U row reaches from
    the leaving slot, not a dense transformed column.

    U is kept in {e position} order: positions [0 .. m-1] are the
    elimination steps of the factorization, and update [e] adds position
    [m + e]. An update vacates the position its slot held; every solve
    sweeps positions and skips vacated ones.

    Index conventions, matching {!Simplex}: a {e row} is a constraint
    index of the LP; a {e slot} is a position in the basis array (the
    basic variable of slot [i] is [basis.(i)]). {!ftran} maps a
    row-indexed right-hand side to a slot-indexed solution; {!btran} maps
    a slot-indexed cost vector to a row-indexed multiplier vector.

    The factorization is exact up to a drop tolerance of [1e-13] on
    cancelled Schur-complement entries (and on spike and row-eta
    entries); accumulated update error is the caller's concern
    ({!Simplex} refactorizes on an update count and on residual checks,
    and when {!update} reports [Unstable]).

    A [t] is also a reusable workspace: {!refactor} refills it in place
    and {!update} appends to its update file, so once a basis of a given
    shape has been factored and updated, neither allocates, and neither
    do the solves. The update file grows on demand from empty, so a
    workspace that is never updated holds no room for one. {!Simplex}
    keeps one workspace per engine.

    {b Single-domain ownership is enforced, not advisory}: solves share
    internal scratch buffers and a mutable update file, so a [t] is
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
  ?metrics:Metrics.shard ->
  Sparse.Csc.mat ->
  int array ->
  t
(** [factor a basis] factorizes the [m x m] basis matrix, where
    [m = Array.length basis] and each [basis.(j)] names a column of
    [a]. No update is stored. The pivot search keeps the active
    columns and rows in Suhl-Suhl-style count buckets over doubly-linked
    lists: it visits only the lowest-count buckets (early exit once no
    unseen candidate can have cost below [(k-1)^2], bounded candidate
    probes) and eliminations splice in O(entries touched). Raises
    {!Singular}; raises
    [Invalid_argument] when [a]'s row dimension differs from [m].
    When a [metrics] shard is given, every call that gets past the
    dimension check, singular or not, is counted in
    {!Metrics.C_lu_factorizations}, its probes in
    {!Metrics.C_lu_probes} and the wall time of the whole call in
    {!Metrics.H_factor_seconds}; when the shard's {!Metrics.writer} is
    active a {!Trace.Lu_factor} event (basis dimension, fill — [0] for
    a singular basis —, pivot-search probes, the same wall time) is
    emitted too. Equivalent to {!refactor} into a fresh
    {!create}[ m]. *)

val create : int -> t
(** [create m] is an empty workspace for [m x m] bases, owned by the
    calling domain. It holds no factorization until {!refactor}: solves
    and updates on it are meaningless before then. *)

val refactor :
  ?metrics:Metrics.shard ->
  t ->
  Sparse.Csc.mat ->
  int array ->
  unit
(** [refactor lu a basis] is {!factor}[ a basis] computed into [lu]'s
    storage: it discards [lu]'s factorization and updates and performs
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
    slot. Applies L, the row etas oldest first, then U with its spike
    columns. It keeps the intermediate after the row etas, [L^-1 b] of
    the updated factorization, as the spike for an {!update} that
    takes [b] as its entering column. Raises [Invalid_argument] from a
    domain other than the factoring one. *)

val btran : t -> float array -> unit
(** [btran lu c] solves [B^T y = c] in place: on entry [c] is indexed
    by slot (a basic-cost vector); on exit it holds [y] indexed by row
    (simplex multipliers). Applies U^T with its spike columns, the row
    etas transposed newest-first, then L^T. *)

val ftran_sparse : t -> float array -> int array -> int -> int
(** [ftran_sparse lu b pat n] is {!ftran} for a {e sparse} right-hand
    side: [b] is dense but its nonzeros are exactly the rows
    [pat.(0 .. n-1)] (every other entry must be [0.]). The solve visits
    only the L steps and U positions reachable from those rows
    (Gilbert-Peierls reachability over the factor's dependency graph:
    the reached steps are stamped, then visited by one sweep in
    order), and every row eta, so its cost is proportional to the span
    it reaches plus the row etas' entries rather than to [m] plus the
    factor's fill. The result equals {!ftran}'s entry by entry (an
    exact zero may differ in sign): the steps it skips would only have
    added exact zeros. It keeps the spike as {!ftran} does.

    Returns [c >= 0]: the solution's nonzeros are among the slots
    [pat.(0 .. c-1)], each listed once (the pattern is conservative —
    listed entries may hold exact zeros — but complete), in decreasing
    U position order; without updates that is decreasing
    elimination-step order. Returns [-1] when the input was too dense
    for the sparse sweep to win; the solve then fell through to the
    dense {!ftran} kernel and no pattern is available. [pat] must have
    length at least [m]. *)

val btran_sparse : t -> float array -> int array -> int -> int
(** [btran_sparse lu c pat n] is {!btran} for a sparse slot-indexed
    input with nonzeros [pat.(0 .. n-1)]; same contract as
    {!ftran_sparse}. On a non-negative return the result's nonzero rows
    are among [pat.(0 .. c-1)], each listed once, in decreasing L
    elimination-step order. The unit-vector right-hand sides of
    dual pricing ([B^T rho = e_r]) are the main beneficiary. *)

type update_status =
  | Updated  (** The factorization now describes the new basis. *)
  | Unstable
      (** The stability test failed: the factorization is unchanged
          (it still describes the old basis) and should be rebuilt
          from the new basis. *)

val update : t -> w:float array -> r:int -> update_status
(** [update lu ~w ~r] installs a basis exchange in slot [r] as a
    Forrest-Tomlin update. The entering column is the one the latest
    {!ftran} or {!ftran_sparse} solved, by the spike that solve kept;
    it must come after the last {!refactor} or update. [w] is that
    solve's result (the transformed entering column, slot-indexed), of
    which only the pivot [w.(r)] is read. The update consumes the
    spike.

    The new U diagonal of slot [r] is stored as [w.(r)] times its old
    one, and must agree with the one computed from the spike and the
    row eta to a relative [1e-8] (the standard stability test of the
    update): otherwise nothing is stored and the result is [Unstable].
    After [Updated], {!ftran}/{!btran} solve against the new basis.
    Raises {!Singular} when [|w.(r)|] is below the pivot tolerance, and
    [Invalid_argument] when no spike is kept. *)

val size : t -> int
(** Basis dimension [m]. *)

val pivot_order : t -> (int * int) array
(** The elimination history: entry [k] is [(row, slot)] — step [k]
    eliminated constraint row [row] against basis slot [slot]. This is
    the Markowitz order actually used by the factorization. Only
    meaningful for the basis as of {!factor} (updates are not
    reflected). *)

val eta_count : t -> int
(** Number of updates stored since {!factor} ([Updated] results of
    {!update}). *)

val eta_nnz : t -> int
(** Total entries stored by the updates, spikes and row etas together —
    the work a dense solve pays per pass over them on top of the
    factorization. {!Simplex} uses it (next to {!eta_count}) to decide
    when refactorizing is cheaper than continuing. *)

val fill : t -> int
(** Stored entries of [L] and [U] (diagonal included) — the fill-in
    measure reported by solver statistics. *)
