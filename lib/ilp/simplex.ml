let src = Logs.Src.create "ilp.simplex" ~doc:"Bounded-variable simplex"

module Log = (val Logs.src_log src : Logs.LOG)

type status = Optimal | Infeasible | Unbounded | Iter_limit

type farkas = {
  ray : float array;
  row : int;
}

type result = {
  status : status;
  obj : float;
  x : float array;
  iterations : int;
  primal_res : float;
  dual_res : float;
  dj : float array;
  farkas : farkas option;
}

type stats = {
  factorizations : int;
  fill : int;
  etas : int;
  refactor_eta : int;
  refactor_numeric : int;
  refactor_residual : int;
  ray_infeasible : int;
  factor_time_s : float;
  ftran_seconds : float;
  btran_seconds : float;
  update_seconds : float;
  pivots : int;
  bound_flips : int;
  dual_stalls : int;
  primal_restarts : int;
  cold_primal : int;
  singular_restarts : int;
  basis_installs : int;
  install_fallbacks : int;
  minor_words : float;
  major_words : float;
  compactions : int;
}

let stats_of_snapshot ?(fill = 0) s =
  let open Metrics in
  let c = counter_value s and f = sum_value s in
  {
    factorizations = c C_lu_factorizations;
    fill;
    etas = c C_lu_etas;
    refactor_eta = c C_lu_refactor_eta;
    refactor_numeric = c C_lu_refactor_numeric;
    refactor_residual = c C_lu_refactor_residual;
    ray_infeasible = c C_lp_ray_infeasible;
    factor_time_s = (hist_value s H_factor_seconds).h_sum;
    ftran_seconds = f S_ftran_seconds;
    btran_seconds = f S_btran_seconds;
    update_seconds = f S_update_seconds;
    pivots = c C_lp_pivots;
    bound_flips = c C_lp_bound_flips;
    dual_stalls = c C_lp_dual_stalls;
    primal_restarts = c C_lp_primal_restarts;
    cold_primal = c C_lp_cold_primal;
    singular_restarts = c C_lp_singular_restarts;
    basis_installs = c C_lp_basis_installs;
    install_fallbacks = c C_lp_install_fallbacks;
    minor_words = f S_gc_minor_words;
    major_words = f S_gc_major_words;
    compactions = c C_gc_compactions;
  }

type vstat = Basic | At_lower | At_upper | Free_zero

(* How the last Infeasible verdict was reached — enough context for
   {!Certify} to rebuild the Farkas ray exactly from the final basis. *)
type infeasibility =
  | Inf_phase1 of float array
      (* phase-I cost vector at the infeasible phase-I optimum *)
  | Inf_dual_row of { row : int; above : bool }
      (* dual-simplex dead end: basic slot [row] out of bounds with no
         eligible entering column *)

(* A self-contained copy of everything an exact a-posteriori check
   needs: the internal model (columns = structural + slack +
   artificial) and the final basis and nonbasic statuses. *)
type snapshot = {
  s_m : int;
  s_nstruct : int;
  s_mat : Sparse.Csc.mat;
  s_basis : int array;
  s_stat : vstat array;
  s_lb : float array;
  s_ub : float array;
  s_rhs : float array;
  s_cost : float array;
  s_infeasibility : infeasibility option;
}

type state = {
  owner : int;  (* creating domain id: all solver storage is unshared *)
  m : int;  (* rows *)
  nstruct : int;  (* structural columns *)
  ncols : int;  (* nstruct + m slacks + m artificials *)
  mat : Sparse.Csc.mat;  (* all columns, CSC *)
  csr : Sparse.Csr.mat;  (* row-major mirror, for pivot-row pricing *)
  lb : float array;
  ub : float array;
  cost : float array;  (* phase-II minimization costs *)
  rhs : float array;
  basis : int array;  (* slot -> basic column *)
  pos : int array;  (* column -> slot when basic, -1 otherwise *)
  stat : vstat array;
  (* The basis as a sparse LU factorization with Forrest-Tomlin
     updates (see {!Lu}). The workspace lives as long as the engine and
     every factorization refills it in place; [lu_valid] says whether
     it currently holds a factorization of the basis. *)
  lu : Lu.t;
  mutable lu_valid : bool;
  xb : float array;  (* values of basic variables, per slot *)
  y : float array;  (* workspace: simplex multipliers *)
  w : float array;  (* workspace: transformed entering column *)
  wpat : int array;  (* nonzero slots of w when wpat_n >= 0 *)
  mutable wpat_n : int;  (* -1 = w is dense (no pattern available) *)
  tmp : float array;  (* workspace *)
  aux : float array;  (* workspace (residual checks) *)
  rho : float array;  (* workspace: B^-1 row for dual pricing *)
  rpat : int array;  (* nonzero rows of rho when rho_n >= 0 *)
  mutable rho_n : int;  (* -1 = rho is dense *)
  (* pivot row alpha = rho A, stamp-validated sparse: over the active
     (nonbasic, not fixed) columns, or over every column for
     [ray_proves] *)
  alpha : float array;
  alpha_pat : int array;
  alpha_mark : int array;
  mutable alpha_n : int;
  mutable alpha_stamp : int;
  dj : float array;  (* reduced costs, maintained incrementally (devex) *)
  dvx_w : float array;  (* devex reference weights *)
  dvx_row : float array;  (* dual devex weights, per basis slot *)
  (* Inside the dual loop: the bounds of each slot's basic column, and
     the primal-infeasibility list. Every slot whose basic value is more
     than [ftol] outside its bounds is listed (and marked); a listed
     slot may since have become feasible. *)
  slot_lb : float array;
  slot_ub : float array;
  inf_list : int array;
  inf_mark : bool array;
  mutable inf_n : int;
  bp_col : int array;  (* dual ratio-test breakpoints: columns *)
  bp_ratio : float array;  (* matching |dj/alpha| ratios *)
  mutable bland : bool;  (* anti-cycling mode *)
  mutable degen_streak : int;
  mutable pivots_since_refactor : int;
  mutable last_fill : int;  (* L+U entries of the latest sparse factorization *)
  mutable last_inf : infeasibility option;
  ms : Metrics.shard;  (* every tally of this engine, and its event writer *)
}

(* Tolerances. The models we target have small integer coefficients, so
   fairly tight tolerances are safe. *)
let ftol = 1e-7 (* primal feasibility *)
let dtol = 1e-7 (* dual feasibility / pricing *)
let ptol = 1e-9 (* smallest acceptable pivot *)
let degen_switch = 60 (* degenerate pivots before switching to Bland *)
let alpha_tie = 1e-9 (* relative |alpha| margin that breaks a ratio tie *)

(* Refactorization cadence, in stored updates. A fresh factorization
   costs ~F seconds while carrying one more update through the FTRAN
   and BTRAN of every pivot costs ~c seconds, so the cheapest refresh
   interval is about sqrt(2F/c). Product-form etas (c ~ 7 us on graph
   4, N=2, L=1) put it at a few dozen; Forrest-Tomlin updates (c ~ 0.3
   us there, F ~ 1.6 ms) put it near 100, where the cost per pivot is
   flat enough that 40 is kept for accuracy and comparable counts (see
   docs/PERFORMANCE.md, "Refactorization cadence"). The entry-count
   guard stops pathologically dense updates from outgrowing the
   factorization they patch. *)
let bucket_eta_limit = 40
let devex_eta_fill = 16
let res_tol = 1e-6 (* basic-solution residual triggering refactorization *)
let devex_reset = 1e8 (* weight bound triggering a reference-frame reset *)

(* Structural single-domain ownership (mirrors {!Lu.check_owner}): the
   workspaces, the basis and the statistics counters are unsynchronized
   mutable state, so any cross-domain call is a data race. Checked at
   the solver entry points; the per-pivot paths are covered by the LU
   stamp. *)
let check_owner st op =
  if (Domain.self () :> int) <> st.owner then
    invalid_arg
      (Printf.sprintf
         "Simplex.%s: engine owned by domain %d used from domain %d \
          (parallel search must create one engine per worker)"
         op st.owner
         (Domain.self () :> int))

let num_structural st = st.nstruct
let fill st = st.last_fill
let total_pivots st = Metrics.count st.ms Metrics.C_lp_pivots
let bound_flips st = Metrics.count st.ms Metrics.C_lp_bound_flips

let stats st = stats_of_snapshot ~fill:st.last_fill (Metrics.merge [ st.ms ])

let pp_status ppf = function
  | Optimal -> Format.fprintf ppf "optimal"
  | Infeasible -> Format.fprintf ppf "infeasible"
  | Unbounded -> Format.fprintf ppf "unbounded"
  | Iter_limit -> Format.fprintf ppf "iteration-limit"

let slack_col st i = st.nstruct + i
let art_col st i = st.nstruct + st.m + i

(* All engine timing flows through the monotonicized shared clock so the
   per-worker ftran/btran totals and idle accounting in Branch_bound are
   mutually consistent across domains. *)
let now = Mono.now

let create ?shard lp =
  let m = Lp.num_constrs lp in
  let nstruct = Lp.num_vars lp in
  let ncols = nstruct + m + m in
  (* Accumulate structural columns from the rows, and each slack's
     bounds from its row's sense; artificials keep [0, 0] until phase I
     opens them. *)
  let col_entries = Array.make nstruct [] in
  let rhs = Array.make m 0. in
  let lb = Array.make ncols 0. and ub = Array.make ncols 0. in
  Lp.iter_rows lp (fun i terms sense b ->
      rhs.(i) <- b;
      List.iter
        (fun (c, v) ->
          let v = (v : Lp.var :> int) in
          col_entries.(v) <- (i, c) :: col_entries.(v))
        terms;
      match sense with
      | Lp.Le -> ub.(nstruct + i) <- Float.infinity
      | Lp.Ge -> lb.(nstruct + i) <- Float.neg_infinity
      | Lp.Eq -> ());
  let cols = Array.make ncols Sparse.empty in
  for j = 0 to nstruct - 1 do
    cols.(j) <- Sparse.of_assoc col_entries.(j)
  done;
  for i = 0 to m - 1 do
    cols.(nstruct + i) <- Sparse.of_assoc [ (i, 1.) ];
    cols.(nstruct + m + i) <- Sparse.of_assoc [ (i, 1.) ]
  done;
  for j = 0 to nstruct - 1 do
    let v = Lp.var_of_int lp j in
    lb.(j) <- Lp.var_lb lp v;
    ub.(j) <- Lp.var_ub lp v
  done;
  let cost = Array.make ncols 0. in
  let obj = Lp.objective lp in
  Array.blit obj 0 cost 0 nstruct;
  let mat = Sparse.Csc.of_columns ~nrows:m cols in
  {
    owner = (Domain.self () :> int);
    m;
    nstruct;
    ncols;
    mat;
    csr = Sparse.Csr.of_csc mat;
    lb;
    ub;
    cost;
    rhs;
    basis = Array.init m (fun i -> nstruct + i);
    pos = Array.make ncols (-1);
    stat = Array.make ncols At_lower;
    lu = Lu.create m;
    lu_valid = false;
    xb = Array.make m 0.;
    y = Array.make m 0.;
    w = Array.make m 0.;
    wpat = Array.make (Int.max 1 m) 0;
    wpat_n = 0;
    tmp = Array.make m 0.;
    aux = Array.make m 0.;
    rho = Array.make m 0.;
    rpat = Array.make (Int.max 1 m) 0;
    rho_n = 0;
    alpha = Array.make ncols 0.;
    alpha_pat = Array.make ncols 0;
    alpha_mark = Array.make ncols 0;
    alpha_n = 0;
    alpha_stamp = 0;
    dj = Array.make ncols 0.;
    dvx_w = Array.make ncols 1.;
    dvx_row = Array.make m 1.;
    slot_lb = Array.make m 0.;
    slot_ub = Array.make m 0.;
    inf_list = Array.make m 0;
    inf_mark = Array.make m false;
    inf_n = 0;
    bp_col = Array.make ncols 0;
    bp_ratio = Array.make ncols 0.;
    bland = false;
    degen_streak = 0;
    pivots_since_refactor = 0;
    last_fill = 0;
    last_inf = None;
    ms = (match shard with Some sh -> sh | None -> Metrics.make_shard ());
  }

let set_var_bounds st j ~lb ~ub =
  check_owner st "set_var_bounds";
  if j < 0 || j >= st.nstruct then invalid_arg "Simplex.set_var_bounds: range";
  if lb > ub then invalid_arg "Simplex.set_var_bounds: lb > ub";
  st.lb.(j) <- lb;
  st.ub.(j) <- ub

let get_var_bounds st j =
  if j < 0 || j >= st.nstruct then invalid_arg "Simplex.get_var_bounds: range";
  (st.lb.(j), st.ub.(j))

let is_fixed st j = st.ub.(j) -. st.lb.(j) <= 1e-12

(* Value of a nonbasic column given its status. *)
let nb_value st j =
  match st.stat.(j) with
  | At_lower -> st.lb.(j)
  | At_upper -> st.ub.(j)
  | Free_zero -> 0.
  | Basic -> invalid_arg "nb_value: basic"

let col_value st j =
  if st.stat.(j) = Basic then st.xb.(st.pos.(j)) else nb_value st j

(* Default nonbasic status for a column given its bounds. *)
let default_stat st j =
  if Float.is_finite st.lb.(j) then At_lower
  else if Float.is_finite st.ub.(j) then At_upper
  else Free_zero

(* -------------------------------------------------------------------- *)
(* Basis-representation kernels                                          *)
(* -------------------------------------------------------------------- *)

exception Singular_basis

(* Factorize the current basis from scratch. {!Lu.refactor} counts it
   and observes its wall time into [H_factor_seconds] (whose sum is
   [stats.factor_time_s]), also when it ends in [Singular_basis]. *)
let fresh_factor st =
  st.lu_valid <- false;
  match Lu.refactor ~metrics:st.ms st.lu st.mat st.basis with
  | () ->
    st.lu_valid <- true;
    st.last_fill <- Lu.fill st.lu
  | exception Lu.Singular -> raise Singular_basis

let valid_lu st =
  if not st.lu_valid then fresh_factor st;
  st.lu

(* Zero out the previous transformed column, touching only its recorded
   nonzeros when a pattern is available. *)
let clear_w st =
  if st.wpat_n < 0 then Array.fill st.w 0 st.m 0.
  else
    for k = 0 to st.wpat_n - 1 do
      st.w.(st.wpat.(k)) <- 0.
    done;
  st.wpat_n <- 0

(* w <- Binv * column j. The solve is hyper-sparse: {!Lu.ftran_sparse}
   visits only the elimination steps reachable from the column's
   nonzeros and reports the solution's slot pattern in [wpat]
   (wpat_n = -1 when it fell through to the dense kernel). The solve
   also keeps the spike a basis exchange on j needs
   ({!update_factor}). *)
let ftran_col st j =
  let t0 = now () in
  let lu = valid_lu st in
  clear_w st;
  let n = ref 0 in
  Sparse.Csc.iter_col st.mat j (fun r a ->
      st.w.(r) <- a;
      st.wpat.(!n) <- r;
      incr n);
  st.wpat_n <- Lu.ftran_sparse lu st.w st.wpat !n;
  Metrics.add_sum st.ms Metrics.S_ftran_seconds (now () -. t0);
  Metrics.incr st.ms Metrics.C_ftran_solves;
  if st.wpat_n >= 0 then Metrics.incr st.ms Metrics.C_ftran_hyper

(* xb <- xb - coef * w, over w's nonzero pattern when available. *)
let update_xb_step st coef =
  if coef <> 0. then begin
    if st.wpat_n < 0 then
      for i = 0 to st.m - 1 do
        st.xb.(i) <- st.xb.(i) -. (coef *. st.w.(i))
      done
    else
      for k = 0 to st.wpat_n - 1 do
        let i = st.wpat.(k) in
        st.xb.(i) <- st.xb.(i) -. (coef *. st.w.(i))
      done
  end

(* Full (not hyper-sparse) ftran of an arbitrary right-hand side in
   place (used for the batched bound-flip update, whose rhs aggregates
   several columns). *)
let ftran_vec st v =
  let t0 = now () in
  Lu.ftran (valid_lu st) v;
  Metrics.add_sum st.ms Metrics.S_ftran_seconds (now () -. t0)

(* xb <- Binv * (rhs - sum of nonbasic columns at their values). A
   residual check on the recomputed basic solution triggers
   refactorization when the updates have degraded it. *)
let rec compute_xb st =
  Array.blit st.rhs 0 st.tmp 0 st.m;
  for j = 0 to st.ncols - 1 do
    if st.stat.(j) <> Basic then begin
      let v = nb_value st j in
      if v <> 0. then Sparse.Csc.add_col_to_dense ~scale:(-.v) st.mat j st.tmp
    end
  done;
  let t0 = now () in
  let lu = valid_lu st in
  Array.blit st.tmp 0 st.xb 0 st.m;
  Lu.ftran lu st.xb;
  Metrics.add_sum st.ms Metrics.S_ftran_seconds (now () -. t0);
  if Lu.eta_count lu > 0 then begin
    (* residual || B xb - tmp ||_inf against the updated solve *)
    Array.fill st.aux 0 st.m 0.;
    for i = 0 to st.m - 1 do
      if st.xb.(i) <> 0. then
        Sparse.Csc.add_col_to_dense ~scale:st.xb.(i) st.mat st.basis.(i)
          st.aux
    done;
    let res = ref 0. and norm = ref 0. in
    for i = 0 to st.m - 1 do
      let d = Float.abs (st.aux.(i) -. st.tmp.(i)) in
      if d > !res then res := d;
      let t = Float.abs st.tmp.(i) in
      if t > !norm then norm := t
    done;
    if !res > res_tol *. (1. +. !norm) then refactor st Trace.Rf_residual
  end

(* Rebuild the factorization from the current basis, then recompute xb.
   Used as a numerical safeguard and by the periodic refresh; [trigger]
   says which, and is counted and traced (the matching
   {!Trace.Lu_factor} event follows from [Lu.factor] itself). *)
and refactor st trigger =
  Metrics.incr st.ms (Metrics.refactor_counter trigger);
  let tw = Metrics.writer st.ms in
  if Trace.active tw then begin
    let etas = if st.lu_valid then Lu.eta_count st.lu else 0 in
    Trace.emit tw (Trace.Lu_refactor { trigger; etas })
  end;
  st.pivots_since_refactor <- 0;
  fresh_factor st;
  for i = 0 to st.m - 1 do
    st.pos.(st.basis.(i)) <- i
  done;
  compute_xb st

(* y <- c_B * Binv for the given cost vector (i.e. solve B^T y = c_B) *)
let compute_y st costs =
  let t0 = now () in
  let lu = valid_lu st in
  for k = 0 to st.m - 1 do
    st.y.(k) <- costs.(st.basis.(k))
  done;
  Lu.btran lu st.y;
  Metrics.add_sum st.ms Metrics.S_btran_seconds (now () -. t0)

let reduced_cost st costs j =
  costs.(j) -. Sparse.Csc.dot_col_dense st.mat j st.y

(* Row r of Binv (the dual pricing vector rho = e_r^T B^-1), by a
   hyper-sparse transposed solve into [st.rho] that records the row
   pattern in [rpat] unless the solve fell through to the dense kernel
   (rho_n = -1). Entries of [st.rho] outside the pattern are exact
   zeros, so the returned array is always valid as a dense vector. *)
let dual_row st r =
  let lu = valid_lu st in
  let t0 = now () in
  (if st.rho_n < 0 then Array.fill st.rho 0 st.m 0.
   else
     for k = 0 to st.rho_n - 1 do
       st.rho.(st.rpat.(k)) <- 0.
     done);
  st.rho.(r) <- 1.;
  st.rpat.(0) <- r;
  st.rho_n <- Lu.btran_sparse lu st.rho st.rpat 1;
  Metrics.add_sum st.ms Metrics.S_btran_seconds (now () -. t0);
  Metrics.incr st.ms Metrics.C_btran_solves;
  if st.rho_n >= 0 then Metrics.incr st.ms Metrics.C_btran_hyper;
  st.rho

(* alpha <- rho A, scanning only the rows where rho is nonzero through
   the CSR mirror: over the active columns (nonbasic and not fixed, the
   only ones pricing, the ratio test and the dj update read) unless
   [all]. The result is pattern + stamp validated: alpha.(j) is
   meaningful iff alpha_mark.(j) = alpha_stamp; a column found inactive
   is marked -alpha_stamp, so it is judged once per build. The stamp
   (rather than zero-testing) makes exact cancellations safe: a column
   can never enter the pattern twice. A skipped column changes no sum
   and no order of the others. Timed into [S_price_seconds]. *)
let build_alpha ~all st rho =
  let t0 = now () in
  st.alpha_stamp <- st.alpha_stamp + 1;
  let stamp = st.alpha_stamp in
  let skip = -stamp in
  let mark = st.alpha_mark and alpha = st.alpha and pat = st.alpha_pat in
  let stat = st.stat and lb = st.lb and ub = st.ub in
  let n = ref 0 in
  (* The row arrays are walked directly: a closure per coefficient
     would box each one it is passed. *)
  let rowptr = st.csr.rowptr and colind = st.csr.colind
  and values = st.csr.values in
  let scan_row i =
    let ri = rho.(i) in
    if ri <> 0. then
      for k = rowptr.(i) to rowptr.(i + 1) - 1 do
        let j = colind.(k) in
        let mj = mark.(j) in
        if mj = stamp then alpha.(j) <- alpha.(j) +. (ri *. values.(k))
        else if mj <> skip then
          if all || (stat.(j) <> Basic && not (ub.(j) -. lb.(j) <= 1e-12))
          then begin
            mark.(j) <- stamp;
            alpha.(j) <- ri *. values.(k);
            pat.(!n) <- j;
            incr n
          end
          else mark.(j) <- skip
      done
  in
  if st.rho_n < 0 then
    for i = 0 to st.m - 1 do
      scan_row i
    done
  else
    for k = 0 to st.rho_n - 1 do
      scan_row st.rpat.(k)
    done;
  st.alpha_n <- !n;
  Metrics.add_sum st.ms Metrics.S_price_seconds (now () -. t0)

(* Apply the basis-exchange update for an entering column whose
   transformed column is in st.w (its spike kept by {!ftran_col}),
   pivoting in slot r: one more Forrest-Tomlin update. Timed into
   [S_update_seconds] (reported as [stats.update_seconds]). Returns
   [false] when the update failed its stability test: the factorization
   then still describes the old basis, and {!due_refresh} asks the
   caller to refactorize once the basis arrays name the new column. *)
let update_factor st r =
  let lu = valid_lu st in
  let t0 = now () in
  let status =
    try Lu.update lu ~w:st.w ~r
    with Lu.Singular ->
      Metrics.add_sum st.ms Metrics.S_update_seconds (now () -. t0);
      raise Singular_basis
  in
  Metrics.add_sum st.ms Metrics.S_update_seconds (now () -. t0);
  match status with
  | Lu.Unstable -> false
  | Lu.Updated ->
    Metrics.incr st.ms Metrics.C_lu_etas;
    true

(* Is a refactorization due after a basis exchange, and under which
   trigger? An update that failed its stability test ([stable] false)
   forces one as a numeric event. Otherwise the update count bounds the
   file's length, and the stored entry count (against the
   factorization's own fill) catches few but dense updates — dragging
   an update file heavier than a fresh factorization through every
   solve is never worth it (see [bucket_eta_limit]). *)
let due_refresh st ~stable =
  if not stable then Some Trace.Rf_numeric
  else if
    st.lu_valid
    && (Lu.eta_count st.lu >= bucket_eta_limit
       || Lu.eta_nnz st.lu > devex_eta_fill * Lu.fill st.lu)
  then Some Trace.Rf_eta
  else None

let objective_value st costs =
  let acc = ref 0. in
  for j = 0 to st.ncols - 1 do
    if costs.(j) <> 0. then acc := !acc +. (costs.(j) *. col_value st j)
  done;
  !acc

let extract_x st = Array.init st.nstruct (fun j -> col_value st j)

(* -------------------------------------------------------------------- *)
(* Residual norms of the current basic solution                          *)
(* -------------------------------------------------------------------- *)

(* Primal residual: worst row violation of the full solution (structural
   + slack + artificial values) plus worst bound violation of a basic
   variable. Dual residual: the most favorable pricing score over the
   nonbasic columns at the phase-II costs — 0 means dual feasible. Both
   are computed from the raw constraint matrix, so a degraded basis
   representation cannot hide its own error. *)
let residual_norms st =
  let primal =
    let acc = ref 0. in
    Array.blit st.rhs 0 st.aux 0 st.m;
    for j = 0 to st.ncols - 1 do
      let v = col_value st j in
      if v <> 0. then Sparse.Csc.add_col_to_dense ~scale:(-.v) st.mat j st.aux
    done;
    for i = 0 to st.m - 1 do
      let d = Float.abs st.aux.(i) in
      if d > !acc then acc := d
    done;
    for i = 0 to st.m - 1 do
      let k = st.basis.(i) in
      let v = st.xb.(i) in
      let viol = Float.max (st.lb.(k) -. v) (v -. st.ub.(k)) in
      if viol > !acc then acc := viol
    done;
    !acc
  in
  let dual =
    match compute_y st st.cost with
    | () ->
      let acc = ref 0. in
      for j = 0 to st.ncols - 1 do
        if st.stat.(j) <> Basic && not (is_fixed st j) then begin
          let d = reduced_cost st st.cost j in
          let score =
            match st.stat.(j) with
            | At_lower -> -.d
            | At_upper -> d
            | Free_zero -> Float.abs d
            | Basic -> 0.
          in
          if score > !acc then acc := score
        end
      done;
      !acc
    | exception Singular_basis -> Float.infinity
  in
  (primal, dual)

let mk_result st status ~iterations =
  let x = extract_x st in
  let primal_res, dual_res =
    match residual_norms st with
    | r -> r
    | exception Singular_basis -> (Float.infinity, Float.infinity)
  in
  (* [residual_norms] left the phase-II duals in [st.y] whenever the
     dual residual is finite, so structural reduced costs come almost
     for free here (basic columns price to zero by definition). *)
  let dj =
    if Float.is_finite dual_res then
      Array.init st.nstruct (fun j ->
          if st.stat.(j) = Basic then 0. else reduced_cost st st.cost j)
    else [||]
  in
  let obj =
    match status with
    | Optimal | Iter_limit -> objective_value st st.cost
    | Unbounded -> Float.neg_infinity
    | Infeasible -> Float.nan
  in
  { status; obj; x; iterations; primal_res; dual_res; dj; farkas = None }

(* The constraint row a reported Farkas ray concentrates on: the row of
   the out-of-bounds basic slack/artificial when there is one, else the
   largest ray component. Purely a reporting aid — the exact certificate
   in {!Certify} carries the whole ray. *)
let farkas_witness st ray =
  let from_basis = ref (-1) and worst = ref 0. in
  for i = 0 to st.m - 1 do
    let k = st.basis.(i) in
    if k >= st.nstruct then begin
      let viol = Float.max (st.lb.(k) -. st.xb.(i)) (st.xb.(i) -. st.ub.(k)) in
      if viol > !worst then begin
        worst := viol;
        (* slack and artificial columns are both the unit vector of
           their constraint row *)
        from_basis := (k - st.nstruct) mod st.m
      end
    end
  done;
  if !from_basis >= 0 then !from_basis
  else begin
    let row = ref 0 in
    for i = 1 to st.m - 1 do
      if Float.abs ray.(i) > Float.abs ray.(!row) then row := i
    done;
    !row
  end

(* -------------------------------------------------------------------- *)
(* Pricing                                                               *)
(* -------------------------------------------------------------------- *)

(* Devex pricing over incrementally maintained reduced costs and
   reference weights. *)

type price_choice = { pc_col : int; pc_d : float }

(* Recompute the full reduced-cost array from scratch (one btran plus
   one pass over the matrix). Called at loop entry, after every
   refactorization, and to confirm optimality before declaring it. *)
let recompute_dj st costs =
  compute_y st costs;
  for j = 0 to st.ncols - 1 do
    st.dj.(j) <- (if st.stat.(j) = Basic then 0. else reduced_cost st costs j)
  done

let reset_devex_weights st = Array.fill st.dvx_w 0 st.ncols 1.

(* Devex pricing: the candidate maximizing score^2 / reference weight —
   an approximation of steepest edge that needs no extra solves. Only
   reads the incrementally maintained dj, so a minor iteration is O(n)
   flat with no btran and no matrix pass. *)
let price_devex st =
  let best = ref None and best_merit = ref 0. in
  for j = 0 to st.ncols - 1 do
    if st.stat.(j) <> Basic && not (is_fixed st j) then begin
      let d = st.dj.(j) in
      let score =
        match st.stat.(j) with
        | At_lower -> -.d
        | At_upper -> d
        | Free_zero -> Float.abs d
        | Basic -> 0.
      in
      if score > dtol then begin
        let merit = score *. score /. st.dvx_w.(j) in
        if merit > !best_merit then begin
          best := Some { pc_col = j; pc_d = d };
          best_merit := merit
        end
      end
    end
  done;
  !best

(* Bland's rule over the maintained dj (the loops recompute dj every
   iteration while in anti-cycling mode, so these are exact). *)
let price_bland st =
  let best = ref None in
  (try
     for j = 0 to st.ncols - 1 do
       if st.stat.(j) <> Basic && not (is_fixed st j) then begin
         let d = st.dj.(j) in
         let score =
           match st.stat.(j) with
           | At_lower -> -.d
           | At_upper -> d
           | Free_zero -> Float.abs d
           | Basic -> 0.
         in
         if score > dtol then begin
           best := Some { pc_col = j; pc_d = d };
           raise Exit
         end
       end
     done
   with Exit -> ());
  !best

(* One-pivot update of dj and the devex weights, from the pivot row
   alpha = rho A (already built over the active columns for the leaving
   slot). Must be called BEFORE the entering/leaving statuses flip: the
   row holds no basic column, and the entering column [q] and leaving
   column [k] are patched explicitly. Fixed columns keep stale dj and
   weights: nothing reads them while their bounds stay fixed, and every
   loop recomputes dj on entry. [alpha_rq] is the pivot element (w.(r),
   the freshest value available). Returns nothing; the caller updates xb
   itself. *)
let update_dj_devex st ~q ~leaving:k ~alpha_rq ~update_weights =
  let theta_d = st.dj.(q) /. alpha_rq in
  let wq = st.dvx_w.(q) in
  let wq_ratio = wq /. (alpha_rq *. alpha_rq) in
  for t = 0 to st.alpha_n - 1 do
    let p = st.alpha_pat.(t) in
    if p <> q then begin
      let a = st.alpha.(p) in
      if theta_d <> 0. then st.dj.(p) <- st.dj.(p) -. (theta_d *. a);
      if update_weights then begin
        let cand = a *. a *. wq_ratio in
        if cand > st.dvx_w.(p) then st.dvx_w.(p) <- cand
      end
    end
  done;
  st.dj.(q) <- 0.;
  st.dj.(k) <- -.theta_d;
  st.dvx_w.(k) <- Float.max wq_ratio 1.;
  (* A runaway reference weight degrades the steepest-edge
     approximation and can overflow the merit ratio: restart the
     reference framework from the current basis. *)
  if update_weights && wq_ratio > devex_reset then reset_devex_weights st

(* -------------------------------------------------------------------- *)
(* Primal simplex iterations                                             *)
(* -------------------------------------------------------------------- *)

type ratio_outcome =
  | Flip of float (* step of a bound flip of the entering column *)
  | Pivot of { row : int; step : float; to_upper : bool }
  | Unbounded_dir

let ratio_test st j sigma =
  let span = st.ub.(j) -. st.lb.(j) in
  let best_t = ref (if Float.is_finite span then span else Float.infinity) in
  let best_row = ref (-1) in
  let best_to_upper = ref false in
  (* tie-breaking: prefer larger |pivot| for stability (or the smallest
     basic index under Bland's anti-cycling rule) *)
  let best_piv = ref 0. in
  let consider i =
    let delta = -.sigma *. st.w.(i) in
    if Float.abs delta > ptol then begin
      let k = st.basis.(i) in
      let target, to_upper =
        if delta > 0. then (st.ub.(k), true) else (st.lb.(k), false)
      in
      if Float.is_finite target then begin
        let t = Float.max 0. ((target -. st.xb.(i)) /. delta) in
        let piv = Float.abs st.w.(i) in
        let improves =
          t < !best_t -. 1e-9
          || (t <= !best_t +. 1e-9 && !best_row >= 0
              &&
              if st.bland then k < st.basis.(!best_row) else piv > !best_piv)
        in
        if improves then begin
          best_t := Float.min t !best_t;
          best_row := i;
          best_to_upper := to_upper;
          best_piv := piv
        end
      end
    end
  in
  (* Rows outside w's pattern hold exact zeros and can never pass the
     pivot tolerance, so the pattern scan is exhaustive. *)
  if st.wpat_n < 0 then
    for i = 0 to st.m - 1 do
      consider i
    done
  else
    for k = 0 to st.wpat_n - 1 do
      consider st.wpat.(k)
    done;
  if !best_row < 0 then
    if Float.is_finite !best_t then Flip !best_t else Unbounded_dir
  else Pivot { row = !best_row; step = !best_t; to_upper = !best_to_upper }

(* Post-pivot bookkeeping for the primal loop: basis exchange, status
   flips, counters, periodic refresh, degeneracy tracking. Returns
   [true] when the refresh refactorized (the loop must then recompute
   dj). *)
let primal_pivot_bookkeeping st ~j ~r ~leaving ~to_upper ~entering_value ~t =
  let stable = update_factor st r in
  st.basis.(r) <- j;
  st.pos.(j) <- r;
  st.pos.(leaving) <- -1;
  st.stat.(j) <- Basic;
  st.stat.(leaving) <- (if to_upper then At_upper else At_lower);
  st.xb.(r) <- entering_value;
  Metrics.incr st.ms Metrics.C_lp_pivots;
  st.pivots_since_refactor <- st.pivots_since_refactor + 1;
  let refreshed =
    match due_refresh st ~stable with
    | Some trigger ->
      refactor st trigger;
      true
    | None -> false
  in
  if t <= 1e-9 then begin
    st.degen_streak <- st.degen_streak + 1;
    if st.degen_streak > degen_switch then st.bland <- true
  end
  else begin
    st.degen_streak <- 0;
    st.bland <- false
  end;
  refreshed

(* One primal phase under devex pricing. dj is maintained
   incrementally from the pivot row (one hyper-sparse btran and one
   CSR pass per basis change); optimality and unboundedness are only
   declared after a from-scratch dj recomputation confirms them, so
   incremental drift can cost extra iterations but never a wrong
   verdict. *)
let primal_loop st costs max_iters =
  let iters = ref 0 in
  let outcome = ref None in
  recompute_dj st costs;
  reset_devex_weights st;
  (* does dj reflect a from-scratch recomputation? *)
  let fresh = ref true in
  let refresh_dj () =
    recompute_dj st costs;
    fresh := true
  in
  while !outcome = None do
    if !iters >= max_iters then outcome := Some Iter_limit
    else begin
      if st.bland && not !fresh then refresh_dj ();
      match if st.bland then price_bland st else price_devex st with
      | None -> if !fresh then outcome := Some Optimal else refresh_dj ()
      | Some { pc_col = j; pc_d = d } ->
        let sigma =
          match st.stat.(j) with
          | At_lower -> 1.
          | At_upper -> -1.
          | Free_zero -> if d < 0. then 1. else -1.
          | Basic -> assert false
        in
        ftran_col st j;
        (match ratio_test st j sigma with
         | Unbounded_dir ->
           if !fresh then outcome := Some Unbounded else refresh_dj ()
         | Flip t ->
           (* a bound flip moves no basic variable in or out: the duals
              (hence dj) are unchanged *)
           update_xb_step st (sigma *. t);
           st.stat.(j) <-
             (match st.stat.(j) with
              | At_lower -> At_upper
              | At_upper -> At_lower
              | Free_zero | Basic -> assert false);
           incr iters;
           Metrics.incr st.ms Metrics.C_lp_bound_flips
         | Pivot { row = r; step = t; to_upper } ->
           if Float.abs st.w.(r) < ptol then begin
             refactor st Trace.Rf_numeric;
             refresh_dj ()
             (* retry this iteration with a clean factorization *)
           end
           else begin
             let entering_value = nb_value st j +. (sigma *. t) in
             let leaving = st.basis.(r) in
             (* pivot row of the outgoing basis, for the dj update *)
             let rho = dual_row st r in
             build_alpha ~all:false st rho;
             update_dj_devex st ~q:j ~leaving ~alpha_rq:st.w.(r)
               ~update_weights:true;
             update_xb_step st (sigma *. t);
             let refreshed =
               primal_pivot_bookkeeping st ~j ~r ~leaving ~to_upper
                 ~entering_value ~t
             in
             incr iters;
             if refreshed then refresh_dj () else fresh := false
           end)
    end
  done;
  (Option.get !outcome, !iters)

(* -------------------------------------------------------------------- *)
(* Full primal solve from a fresh slack basis                             *)
(* -------------------------------------------------------------------- *)

(* The slack basis, each structural column nonbasic at [place j]. *)
let reset_to_slack_basis st ~place =
  for j = 0 to st.nstruct - 1 do
    st.stat.(j) <- place j;
    st.pos.(j) <- -1
  done;
  for i = 0 to st.m - 1 do
    let s = slack_col st i and a = art_col st i in
    st.basis.(i) <- s;
    st.stat.(s) <- Basic;
    st.pos.(s) <- i;
    (* close artificials *)
    st.lb.(a) <- 0.;
    st.ub.(a) <- 0.;
    st.stat.(a) <- At_lower;
    st.pos.(a) <- -1
  done;
  (* the slack basis is a permutation-free identity: factor it fresh
     (cheap: every column is a singleton) *)
  fresh_factor st;
  st.bland <- false;
  st.degen_streak <- 0;
  st.pivots_since_refactor <- 0;
  compute_xb st

let rec primal_guarded ~max_iters ~attempt st =
  try primal_once ~max_iters st
  with Singular_basis ->
    (* accumulated numerical damage (a singular basis, or a phase-I
       ray): restart from the exact identity basis; give up gracefully
       if it persists *)
    Log.warn (fun f -> f "singular basis; restarting primal from scratch");
    if attempt = 0 then Metrics.incr st.ms Metrics.C_lp_singular_restarts;
    if attempt >= 1 then
      {
        status = Iter_limit;
        obj = Float.nan;
        x = extract_x st;
        iterations = 0;
        primal_res = Float.infinity;
        dual_res = Float.infinity;
        dj = [||];
        farkas = None;
      }
    else primal_guarded ~max_iters ~attempt:(attempt + 1) st

and primal_once ~max_iters st =
  st.last_inf <- None;
  reset_to_slack_basis st ~place:(default_stat st);
  (* Install artificials on rows whose slack value violates slack bounds. *)
  let phase1_cost = Array.make st.ncols 0. in
  let need_phase1 = ref false in
  for i = 0 to st.m - 1 do
    let s = slack_col st i and a = art_col st i in
    let v = st.xb.(i) in
    if v > st.ub.(s) +. ftol then begin
      st.stat.(s) <- At_upper;
      st.pos.(s) <- -1;
      st.lb.(a) <- 0.;
      st.ub.(a) <- Float.infinity;
      phase1_cost.(a) <- 1.;
      st.basis.(i) <- a;
      st.stat.(a) <- Basic;
      st.pos.(a) <- i;
      st.xb.(i) <- v -. st.ub.(s);
      need_phase1 := true
    end
    else if v < st.lb.(s) -. ftol then begin
      st.stat.(s) <- At_lower;
      st.pos.(s) <- -1;
      st.lb.(a) <- Float.neg_infinity;
      st.ub.(a) <- 0.;
      phase1_cost.(a) <- -1.;
      st.basis.(i) <- a;
      st.stat.(a) <- Basic;
      st.pos.(a) <- i;
      st.xb.(i) <- v -. st.lb.(s);
      need_phase1 := true
    end
  done;
  (* the artificial and slack columns of a row are the same unit vector,
     so swapping them leaves the factorized basis matrix unchanged *)
  let iters1 = ref 0 in
  let feasible = ref true in
  if !need_phase1 then begin
    let status, it = primal_loop st phase1_cost max_iters in
    iters1 := it;
    match status with
    | Iter_limit ->
      feasible := false (* treated below as iteration limit *)
    | Unbounded ->
      (* The phase-I objective is bounded below by 0, so a ray is
         numerical damage of a badly scaled basis: restart like a
         singular one. *)
      raise Singular_basis
    | Optimal | Infeasible ->
      let infeas = objective_value st phase1_cost in
      let infeas =
        if infeas > 1e-6 && st.pivots_since_refactor > 0 then begin
          (* guard against drift-faked infeasibility *)
          refactor st Trace.Rf_numeric;
          let _, it = primal_loop st phase1_cost max_iters in
          iters1 := !iters1 + it;
          objective_value st phase1_cost
        end
        else infeas
      in
      if infeas > 1e-6 then feasible := false;
      (* Close the artificial bounds for phase II. Any artificial still
         basic sits at value 0 and leaves on the first pivot touching
         its row (its [0,0] bounds make the ratio test expel it). *)
      for i = 0 to st.m - 1 do
        let a = art_col st i in
        st.lb.(a) <- 0.;
        st.ub.(a) <- 0.;
        if st.stat.(a) <> Basic then st.stat.(a) <- At_lower
      done
  end;
  if (not !feasible) && !iters1 >= max_iters then
    mk_result st Iter_limit ~iterations:!iters1
  else if not !feasible then begin
    (* The phase-I duals at a positive-infeasibility optimum are a
       Farkas ray: y.b exceeds max over the variable box of y.Ax. Record
       the phase-I costs so {!Certify} can re-derive y exactly from the
       final basis; the float ray here is the callers' reporting aid. *)
    st.last_inf <- Some (Inf_phase1 (Array.copy phase1_cost));
    compute_y st phase1_cost;
    let ray = Array.copy st.y in
    let row = farkas_witness st ray in
    let r = mk_result st Infeasible ~iterations:!iters1 in
    { r with farkas = Some { ray; row } }
  end
  else begin
    let status, it2 = primal_loop st st.cost (max_iters - !iters1) in
    mk_result st status ~iterations:(!iters1 + it2)
  end

(* -------------------------------------------------------------------- *)
(* Dual-simplex re-optimization after bound changes                       *)
(* -------------------------------------------------------------------- *)

(* Clamp nonbasic columns back inside their (possibly new) bounds. *)
let revalidate_nonbasic st =
  for j = 0 to st.ncols - 1 do
    if st.stat.(j) <> Basic then begin
      let lo = st.lb.(j) and hi = st.ub.(j) in
      (match st.stat.(j) with
       | Free_zero ->
         if Float.is_finite lo then st.stat.(j) <- At_lower
         else if Float.is_finite hi then st.stat.(j) <- At_upper
       | At_lower -> if not (Float.is_finite lo) then
           st.stat.(j) <- (if Float.is_finite hi then At_upper else Free_zero)
       | At_upper -> if not (Float.is_finite hi) then
           st.stat.(j) <- (if Float.is_finite lo then At_lower else Free_zero)
       | Basic -> ());
      (* After bound tightening an At_lower column may sit below the new
         lower bound etc.; snap to the nearest bound. *)
      match st.stat.(j) with
      | At_lower | At_upper ->
        let v = nb_value st j in
        if v < lo -. 1e-12 then st.stat.(j) <- At_lower
        else if v > hi +. 1e-12 then st.stat.(j) <- At_upper
      | Free_zero | Basic -> ()
    end
  done

(* The dual loop's infeasibility list (Hall & McKinnon 2005). Inside
   the loop no bound changes and the basis changes by the loop's own
   pivots alone, so the slot bounds are read off the basis at entry and
   follow slot r at each pivot, and a pivot moves xb on w's pattern
   only. *)

(* Is slot i's basic value, now [v], infeasible? The test holds for
   every slot {!devex_violated_row} could choose (and for NaN ones it
   could not, which it drops). *)
let[@inline] slot_infeasible st i v =
  v -. st.slot_ub.(i) > ftol || st.slot_lb.(i) -. v > ftol

let list_slot st i =
  st.inf_mark.(i) <- true;
  st.inf_list.(st.inf_n) <- i;
  st.inf_n <- st.inf_n + 1

(* List slot i if it is infeasible and not listed yet. *)
let note_slot st i =
  if slot_infeasible st i st.xb.(i) && not st.inf_mark.(i) then list_slot st i

(* The list from scratch, after xb moved on every slot. *)
let rebuild_infeasible st =
  for t = 0 to st.inf_n - 1 do
    st.inf_mark.(st.inf_list.(t)) <- false
  done;
  st.inf_n <- 0;
  for i = 0 to st.m - 1 do
    note_slot st i
  done

(* Slot bounds and list at dual-loop entry. *)
let start_infeasible st =
  for i = 0 to st.m - 1 do
    let k = st.basis.(i) in
    st.slot_lb.(i) <- st.lb.(k);
    st.slot_ub.(i) <- st.ub.(k)
  done;
  rebuild_infeasible st

(* {!update_xb_step} for a dual pivot, listing each slot it moves that
   it leaves infeasible. *)
let dual_xb_step st theta =
  if theta <> 0. then
    if st.wpat_n < 0 then begin
      update_xb_step st theta;
      rebuild_infeasible st
    end
    else begin
      let xb = st.xb and w = st.w and wpat = st.wpat and mark = st.inf_mark in
      for k = 0 to st.wpat_n - 1 do
        let i = wpat.(k) in
        let v = xb.(i) -. (theta *. w.(i)) in
        xb.(i) <- v;
        if slot_infeasible st i v && not mark.(i) then list_slot st i
      done
    end

(* Dual devex row choice: the slot maximizing infeasibility^2 / weight,
   where the weights track the squared norms of the B^-1 rows relative
   to the reference basis the dual loop started from (Forrest &
   Goldfarb 1992). Dantzig's largest violation favours rows whose B^-1
   row is long, i.e. steps that move the duals little. Only the slots
   of the infeasibility list are scored, and those it finds feasible
   leave it. Timed into [S_chuzr_seconds]. *)
let devex_violated_row st =
  let t0 = now () in
  let best = ref (-1) and best_v = ref 0. and best_above = ref false in
  (* The listed slots in list order, dropping those now feasible; exact
     score ties go to the lowest slot, as a scan of every row in slot
     order would choose. *)
  let t = ref 0 in
  while !t < st.inf_n do
    let i = st.inf_list.(!t) in
    let above = st.xb.(i) -. st.slot_ub.(i)
    and below = st.slot_lb.(i) -. st.xb.(i) in
    let v = Float.max above below in
    if v > ftol then begin
      let score = v *. v /. st.dvx_row.(i) in
      if score > !best_v || (score = !best_v && !best >= 0 && i < !best)
      then begin
        best := i;
        best_v := score;
        best_above := above > below
      end;
      incr t
    end
    else begin
      st.inf_mark.(i) <- false;
      st.inf_n <- st.inf_n - 1;
      st.inf_list.(!t) <- st.inf_list.(st.inf_n)
    end
  done;
  Metrics.add_sum st.ms Metrics.S_chuzr_seconds (now () -. t0);
  if !best < 0 then None else Some (!best, !best_above)

(* Dual devex update for a pivot on slot r with transformed entering
   column w (alpha_r = w.(r)): every other slot's weight grows to at
   least (w_i / alpha_r)^2 times the leaving slot's weight. *)
let update_dual_devex st r alpha_r =
  let wr = st.dvx_row.(r) in
  let bump i =
    if i <> r then begin
      let q = st.w.(i) /. alpha_r in
      let v = q *. q *. wr in
      if v > st.dvx_row.(i) then st.dvx_row.(i) <- v
    end
  in
  if st.wpat_n < 0 then
    for i = 0 to st.m - 1 do
      bump i
    done
  else
    for t = 0 to st.wpat_n - 1 do
      bump st.wpat.(t)
    done;
  st.dvx_row.(r) <- Float.max (wr /. (alpha_r *. alpha_r)) 1.

(* Is nonbasic column j an eligible entering candidate for repairing a
   basic value that is [above] its bound, given its pivot-row
   coefficient? Inlined: a call boxes [alpha], once per column of every
   pivot row. *)
let[@inline] dual_eligible st j alpha above =
  if above then
    match st.stat.(j) with
    | At_lower -> alpha > ptol
    | At_upper -> alpha < -.ptol
    | Free_zero -> Float.abs alpha > ptol
    | Basic -> false
  else
    match st.stat.(j) with
    | At_lower -> alpha < -.ptol
    | At_upper -> alpha > ptol
    | Free_zero -> Float.abs alpha > ptol
    | Basic -> false

(* In-place quicksort of the breakpoint arrays by ratio (ascending),
   Hoare partition with median-of-three (the ratios of a warm restart
   arrive nearly sorted, which would send a naive pivot quadratic). *)
let swap_bp st i j =
  let c = st.bp_col.(i) in
  st.bp_col.(i) <- st.bp_col.(j);
  st.bp_col.(j) <- c;
  let r = st.bp_ratio.(i) in
  st.bp_ratio.(i) <- st.bp_ratio.(j);
  st.bp_ratio.(j) <- r

let rec sort_bp st lo hi =
  if lo < hi then begin
    let mid = lo + ((hi - lo) / 2) in
    if st.bp_ratio.(mid) < st.bp_ratio.(lo) then swap_bp st lo mid;
    if st.bp_ratio.(hi) < st.bp_ratio.(lo) then swap_bp st lo hi;
    if st.bp_ratio.(hi) < st.bp_ratio.(mid) then swap_bp st mid hi;
    let p = st.bp_ratio.(mid) in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while st.bp_ratio.(!i) < p do
        incr i
      done;
      while st.bp_ratio.(!j) > p do
        decr j
      done;
      if !i <= !j then begin
        swap_bp st !i !j;
        incr i;
        decr j
      end
    done;
    sort_bp st lo !j;
    sort_bp st !i hi
  end

(* Float Farkas check of a dual dead end on the row rho = st.rho, with
   alpha = rho A rebuilt by {!build_alpha} from the raw matrix over
   every column, basic and fixed ones included (the loop's own pivot
   row holds the active columns only). Every x with Ax = rhs has
   alpha.x = rho.rhs. So when
   the violation is [above] its bound and rho.rhs exceeds the box
   maximum of alpha.x by a margin (below: falls under the box minimum),
   no x in the box satisfies the rows, however far the LU behind rho
   has drifted. No term is dropped: a nonzero alpha, however small, on
   a column whose bound on the unfavourable side is infinite fails the
   check. *)
let ray_proves st ~above =
  build_alpha ~all:true st st.rho;
  let s = if above then 1. else -1. in
  let lhs = ref 0. and mag = ref 0. in
  let dense = st.rho_n < 0 in
  for k = 0 to (if dense then st.m else st.rho_n) - 1 do
    let i = if dense then k else st.rpat.(k) in
    let v = st.rho.(i) *. st.rhs.(i) in
    lhs := !lhs +. v;
    mag := !mag +. Float.abs v
  done;
  (* box maximum of s * alpha.x, summed until a term is unbounded *)
  let box = ref 0. and t = ref 0 in
  while !t < st.alpha_n && Float.is_finite !box do
    let j = st.alpha_pat.(!t) in
    let a = s *. st.alpha.(j) in
    if a <> 0. then begin
      let v = a *. if a > 0. then st.ub.(j) else st.lb.(j) in
      box := !box +. v;
      mag := !mag +. Float.abs v
    end;
    incr t
  done;
  Float.is_finite !box && (s *. !lhs) -. !box > ftol *. (1. +. !mag)

(* The dual loop: the leaving row by dual devex weights over the
   infeasibility list, one hyper-sparse btran builds the pivot row over
   the active columns through the CSR mirror, entering candidates come
   from the incrementally maintained dj (no
   per-column dot products), and the ratio test is bound-flipping:
   breakpoints are walked in ratio order and every boxed candidate whose
   flip leaves the row still infeasible jumps to its other bound without
   a basis change — all flips applied in one batched ftran. On 0-1
   models this replaces long chains of degenerate basis exchanges with a
   single pivot. *)
let dual_loop st max_iters =
  let iters = ref 0 in
  let outcome = ref None in
  (* a refactorization recomputes xb, dj and so the list *)
  let refresh trigger =
    refactor st trigger;
    recompute_dj st st.cost;
    rebuild_infeasible st
  in
  recompute_dj st st.cost;
  Array.fill st.dvx_row 0 st.m 1.;
  start_infeasible st;
  while !outcome = None do
    if !iters >= max_iters then outcome := Some `Stalled
    else
      match devex_violated_row st with
      | None -> outcome := Some `Primal_feasible
      | Some (r, above) ->
        (* No eligible entering column: primal infeasible — unless
           accumulated update error faked the dead end. A fresh
           factorization is trusted as is; after a pivot the pivot row
           must prove the box infeasible on its own, or the dead end is
           re-derived from a fresh factorization. *)
        let infeasible_here () =
          if st.pivots_since_refactor = 0 then
            outcome := Some (`Infeasible (r, above))
          else if ray_proves st ~above then begin
            Metrics.incr st.ms Metrics.C_lp_ray_infeasible;
            outcome := Some (`Infeasible (r, above))
          end
          else begin
            refresh Trace.Rf_numeric;
            incr iters
          end
        in
        let rho = dual_row st r in
        build_alpha ~all:false st rho;
        (* collect the eligible breakpoints with their dual ratios (the
           row holds active columns only) *)
        let nbp = ref 0 in
        for t = 0 to st.alpha_n - 1 do
          let j = st.alpha_pat.(t) in
          let alpha = st.alpha.(j) in
          if dual_eligible st j alpha above then begin
            st.bp_col.(!nbp) <- j;
            st.bp_ratio.(!nbp) <- Float.abs (st.dj.(j) /. alpha);
            incr nbp
          end
        done;
        if !nbp = 0 then infeasible_here ()
        else begin
          sort_bp st 0 (!nbp - 1);
          let k = st.basis.(r) in
          (* remaining infeasibility of the violated row; each flip of a
             boxed candidate j reduces it by |alpha_j| * span_j *)
          let rem =
            ref
              (if above then st.xb.(r) -. st.ub.(k)
               else st.lb.(k) -. st.xb.(r))
          in
          (* the breakpoint where the slope turns *)
          let turn = ref (-1) in
          let t = ref 0 in
          while !turn < 0 && !t < !nbp do
            let j = st.bp_col.(!t) in
            let a = Float.abs st.alpha.(j) in
            let span = st.ub.(j) -. st.lb.(j) in
            if Float.is_finite span && !rem -. (a *. span) > ftol then begin
              rem := !rem -. (a *. span);
              incr t
            end
            else turn := !t
          done;
          if !turn < 0 then
            (* Every breakpoint was exhausted with the row still
               infeasible: the dual is unbounded, i.e. the primal is
               infeasible. No flips were applied, so the certificate
               below describes the untouched basis and statuses. *)
            infeasible_here ()
          else begin
            (* Harris pass over the tie at the turning ratio rc: every
               breakpoint within dtol of rc reaches dj = 0 at the step,
               so flipping it buys no dual progress and only moves the
               primal. Flip the breakpoints strictly below the tie;
               enter the tied one with the largest |alpha|. A candidate
               displaces the one in hand only when its |alpha| is
               larger by more than [alpha_tie]: values equal up to
               rounding keep the one in hand (first the turning
               breakpoint), instead of letting the last bit of the LU
               arithmetic pick the pivot. *)
            let rc = st.bp_ratio.(!turn) in
            let nflip = ref !turn in
            while !nflip > 0 && st.bp_ratio.(!nflip - 1) >= rc -. dtol do
              decr nflip
            done;
            let j = ref st.bp_col.(!turn) in
            let t = ref !nflip in
            while !t < !nbp && st.bp_ratio.(!t) <= rc +. dtol do
              let p = st.bp_col.(!t) in
              if
                Float.abs st.alpha.(p)
                > Float.abs st.alpha.(!j) *. (1. +. alpha_tie)
              then j := p;
              incr t
            done;
            let j = !j in
            (* apply the passed-through flips as one batch:
               xb -= B^-1 (sum of dv_p * A_p) with a single solve *)
            if !nflip > 0 then begin
              Array.fill st.tmp 0 st.m 0.;
              for t = 0 to !nflip - 1 do
                let p = st.bp_col.(t) in
                let dv, ns =
                  match st.stat.(p) with
                  | At_lower -> (st.ub.(p) -. st.lb.(p), At_upper)
                  | At_upper -> (st.lb.(p) -. st.ub.(p), At_lower)
                  | Free_zero | Basic -> assert false
                in
                st.stat.(p) <- ns;
                Sparse.Csc.add_col_to_dense ~scale:dv st.mat p st.tmp
              done;
              ftran_vec st st.tmp;
              for i = 0 to st.m - 1 do
                st.xb.(i) <- st.xb.(i) -. st.tmp.(i)
              done;
              rebuild_infeasible st;
              Metrics.add st.ms Metrics.C_lp_bound_flips !nflip
            end;
            ftran_col st j;
            let alpha_rj = st.w.(r) in
            if Float.abs alpha_rj < ptol then begin
              refresh Trace.Rf_numeric;
              incr iters (* the flips stand; retry from a clean basis *)
            end
            else begin
              let bound = if above then st.ub.(k) else st.lb.(k) in
              let theta = (st.xb.(r) -. bound) /. alpha_rj in
              let entering_value = nb_value st j +. theta in
              (* dj update from the already-built pivot row, before any
                 status changes of j and k (flipped columns stay
                 nonbasic, so they were updated like the rest) *)
              update_dj_devex st ~q:j ~leaving:k ~alpha_rq:alpha_rj
                ~update_weights:false;
              update_dual_devex st r alpha_rj;
              dual_xb_step st theta;
              let stable = update_factor st r in
              st.basis.(r) <- j;
              st.pos.(j) <- r;
              st.pos.(k) <- -1;
              st.stat.(j) <- Basic;
              st.stat.(k) <- (if above then At_upper else At_lower);
              st.xb.(r) <- entering_value;
              st.slot_lb.(r) <- st.lb.(j);
              st.slot_ub.(r) <- st.ub.(j);
              note_slot st r;
              incr iters;
              Metrics.incr st.ms Metrics.C_lp_pivots;
              st.pivots_since_refactor <- st.pivots_since_refactor + 1;
              match due_refresh st ~stable with
              | Some trigger -> refresh trigger
              | None -> ()
            end
          end
        end
  done;
  (Option.get !outcome, !iters)

let snapshot st =
  check_owner st "snapshot";
  {
    s_m = st.m;
    s_nstruct = st.nstruct;
    s_mat = st.mat;
    s_basis = Array.copy st.basis;
    s_stat = Array.copy st.stat;
    s_lb = Array.copy st.lb;
    s_ub = Array.copy st.ub;
    s_rhs = Array.copy st.rhs;
    s_cost = Array.copy st.cost;
    s_infeasibility = st.last_inf;
  }

(* -------------------------------------------------------------------- *)
(* Warm-start basis shipping                                             *)
(* -------------------------------------------------------------------- *)

type basis = {
  b_m : int;
  b_ncols : int;
  b_basis : int array;  (* slot -> basic column *)
  b_stat : vstat array;  (* status of every column *)
}

let export_basis st =
  check_owner st "export_basis";
  {
    b_m = st.m;
    b_ncols = st.ncols;
    b_basis = Array.copy st.basis;
    b_stat = Array.copy st.stat;
  }

let install_basis_core st b =
  if b.b_m <> st.m || b.b_ncols <> st.ncols then false
  else begin
    Array.blit b.b_basis 0 st.basis 0 st.m;
    Array.blit b.b_stat 0 st.stat 0 st.ncols;
    (* Rebuild the column -> slot map. A duplicate or out-of-range basic
       column is a corrupt header: fail like a singular factorization
       (the engine's basis is then unspecified; the caller cold-solves,
       and [primal] resets to the slack basis anyway). *)
    let ok = ref true in
    Array.fill st.pos 0 st.ncols (-1);
    for i = 0 to st.m - 1 do
      let c = st.basis.(i) in
      if c < 0 || c >= st.ncols || st.pos.(c) >= 0 then ok := false
      else begin
        st.pos.(c) <- i;
        st.stat.(c) <- Basic
      end
    done;
    (* Artificials stay closed at [0, 0] outside phase I. *)
    for i = 0 to st.m - 1 do
      let a = art_col st i in
      st.lb.(a) <- 0.;
      st.ub.(a) <- 0.;
      if st.pos.(a) < 0 then st.stat.(a) <- At_lower
    done;
    st.bland <- false;
    st.degen_streak <- 0;
    st.pivots_since_refactor <- 0;
    st.last_inf <- None;
    reset_devex_weights st;
    st.lu_valid <- false;
    !ok
    &&
    match
      fresh_factor st;
      compute_xb st
    with
    | () -> true
    | exception Singular_basis ->
      st.lu_valid <- false;
      false
  end

let install_basis st b =
  check_owner st "install_basis";
  Metrics.incr st.ms Metrics.C_lp_basis_installs;
  let ok = install_basis_core st b in
  if not ok then Metrics.incr st.ms Metrics.C_lp_install_fallbacks;
  ok

(* Primal phase I/II from the slack basis, counted on every entry: a
   cold model the dual start cannot take, or a fallback from either
   dual path. Phase I never calls back into the dual loop, so the
   fallbacks below cannot cycle. *)
let phase1_solve ~max_iters st =
  Metrics.incr st.ms Metrics.C_lp_cold_primal;
  primal_guarded ~max_iters ~attempt:0 st

(* The dual loop under the [1000 + 30 m] cap from the basis [start]
   leaves behind, then a primal clean-up pass; [what] names the solve
   in the logs. A stall or a singular basis falls back to
   [phase1_solve]. Internal fallbacks stay inside the caller's traced
   [primal]/[dual_reopt], so one event covers the whole solve; pivots
   are measured as the [total_pivots] delta, so summed event pivots
   equal the engine's pivot counter exactly. *)
let dual_solve ~what ~max_iters ~start st =
  match
    (st.last_inf <- None;
     start ();
     let dual_cap = Int.min max_iters (1000 + (30 * st.m)) in
     dual_loop st dual_cap)
  with
  | exception Singular_basis ->
    Log.warn (fun f -> f "singular basis in %s; primal restart" what);
    Metrics.incr st.ms Metrics.C_lp_primal_restarts;
    phase1_solve ~max_iters st
  | `Infeasible (r, above), it ->
    (* Row r of B^-1 (negated when the violation is below the lower
       bound) is the Farkas ray: the violated basic value already sits
       at its box extreme over every nonbasic choice. The loop's last
       pricing row is that row ([st.rho]), so no solve is repeated. *)
    st.last_inf <- Some (Inf_dual_row { row = r; above });
    let rho = st.rho in
    let ray = Array.init st.m (fun i -> if above then rho.(i) else -.rho.(i)) in
    let row = farkas_witness st ray in
    let res = mk_result st Infeasible ~iterations:it in
    { res with farkas = Some { ray; row } }
  | `Stalled, it ->
    Log.info (fun f ->
        f "%s stalled after %d iterations (m=%d); primal restart" what it st.m);
    Metrics.incr st.ms Metrics.C_lp_dual_stalls;
    phase1_solve ~max_iters st
  | `Primal_feasible, it1 -> (
    (* The dual loop restored primal feasibility; a primal clean-up pass
       certifies optimality (a warm basis may not be dual feasible,
       e.g. after a nonbasic column was snapped to its other bound). *)
    match primal_loop st st.cost (max_iters - it1) with
    | exception Singular_basis ->
      Log.warn (fun f -> f "singular basis in clean-up; primal restart");
      Metrics.incr st.ms Metrics.C_lp_primal_restarts;
      phase1_solve ~max_iters st
    | status, it2 ->
    (match status with
     | Optimal | Unbounded | Iter_limit ->
       mk_result st status ~iterations:(it1 + it2)
     | Infeasible -> assert false (* primal_loop never returns Infeasible *)))

let dual_reopt_core ~max_iters st =
  dual_solve ~what:"dual re-optimization" ~max_iters st ~start:(fun () ->
      revalidate_nonbasic st;
      compute_xb st)

(* The bound a structural column's cost sign asks for. Under the slack
   basis y = 0, so dj = c_j: a column at lower with c_j > 0 or at upper
   with c_j < 0 prices dual feasible, and a zero-cost column does at
   either bound. *)
let cost_side_stat st j =
  let c = st.cost.(j) in
  if c > 0. then At_lower else if c < 0. then At_upper else default_stat st j

(* Is every structural column's cost-side bound finite? Then the slack
   basis with [cost_side_stat] is a dual feasible start. *)
let dual_start_eligible st =
  let bounded j =
    match cost_side_stat st j with
    | At_lower -> Float.is_finite st.lb.(j)
    | At_upper -> Float.is_finite st.ub.(j)
    | Free_zero | Basic -> false
  in
  let rec go j = j >= st.nstruct || (bounded j && go (j + 1)) in
  go 0

(* Cold solve: the dual loop from the dual feasible slack basis when
   every column is boxed on its cost side (the 0-1 relaxations this
   engine targets always are), else primal phase I/II. *)
let cold_core ~max_iters st =
  if dual_start_eligible st then
    dual_solve ~what:"cold dual solve" ~max_iters st ~start:(fun () ->
        reset_to_slack_basis st ~place:(cost_side_stat st))
  else phase1_solve ~max_iters st

(* Every top-level solve is counted and timed, and accounts its
   allocation to the engine's shard (reported in {!stats}), so hot-path
   allocation regressions are visible from [--stats] alone. Minor words
   come from [Gc.minor_words], which counts to the word; the
   [Gc.quick_stat] minor count only advances when a minor collection
   runs. Both read domain-local counters — no heap walk. The trace
   event's pivots and flips are the engine counters' deltas. *)
let top_level st kind core =
  let g0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let t0 = now () and pivots0 = total_pivots st and flips0 = bound_flips st in
  let r = core () in
  let dt = now () -. t0 in
  let w1 = Gc.minor_words () in
  let g1 = Gc.quick_stat () in
  Metrics.incr st.ms Metrics.C_lp_solves;
  Metrics.observe st.ms Metrics.H_lp_seconds dt;
  Metrics.add_sum st.ms Metrics.S_gc_minor_words (w1 -. w0);
  Metrics.add_sum st.ms Metrics.S_gc_major_words
    (g1.Gc.major_words -. g0.Gc.major_words);
  Metrics.add st.ms Metrics.C_gc_compactions
    (g1.Gc.compactions - g0.Gc.compactions);
  let tw = Metrics.writer st.ms in
  if Trace.active tw then
    Trace.emit tw
      (Trace.Lp_solve
         {
           kind;
           pivots = total_pivots st - pivots0;
           flips = bound_flips st - flips0;
           obj = r.obj;
           primal_res = r.primal_res;
           dual_res = r.dual_res;
           dt;
         });
  r

let primal ?(max_iters = 200_000) st =
  check_owner st "primal";
  top_level st Trace.Lp_primal (fun () -> cold_core ~max_iters st)

let dual_reopt ?(max_iters = 200_000) st =
  check_owner st "dual_reopt";
  top_level st Trace.Lp_dual (fun () -> dual_reopt_core ~max_iters st)

let solve ?max_iters lp = primal ?max_iters (create lp)
