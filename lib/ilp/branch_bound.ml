let src = Logs.Src.create "ilp.bb" ~doc:"Branch and bound"

module Log = (val Logs.src_log src : Logs.LOG)

type branch_rule = lp_solution:float array -> is_fixed:(int -> bool) -> int option

type hook_point = Bounds of float array | Lp_solution of float array

type hook_result =
  | Hook_none
  | Hook_incumbent of float array
  | Hook_prune
  | Hook_incumbent_and_prune of float array
  | Hook_gave_up of string

type certify_level = Cert_off | Cert_root | Cert_incumbents | Cert_all

type options = {
  max_nodes : int;
  time_limit : float;
  branch_rule : branch_rule option;
  on_incumbent : (float -> float array -> unit) option;
  warm_start : bool;
  node_hook : (hook_point -> is_fixed:(int -> bool) -> hook_result) option;
  jobs : int;
  deterministic : bool;
  certify_level : certify_level;
  tracer : Trace.t;
  metrics : Metrics.t option;
}

let default_options =
  {
    max_nodes = max_int;
    time_limit = Float.infinity;
    branch_rule = None;
    on_incumbent = None;
    warm_start = true;
    node_hook = None;
    jobs = 1;
    deterministic = false;
    certify_level = Cert_off;
    tracer = Trace.disabled;
    metrics = None;
  }

type outcome =
  | Optimal of { obj : float; x : float array }
  | Infeasible
  | Unbounded
  | Limit_reached of { best : (float * float array) option; bound : float }

type worker_stats = {
  w_nodes : int;
  w_incumbents : int;
  w_steals : int;
  w_handoffs : int;
  w_idle : float;
  w_pivots : int;
}

(* The stats records below are views of a {!Metrics} snapshot. *)
let worker_of s =
  let c = Metrics.counter_value s in
  {
    w_nodes = c C_nodes;
    w_incumbents = c C_incumbents;
    w_steals = c C_pool_steals;
    w_handoffs = c C_pool_handoffs;
    w_idle = Metrics.sum_value s S_pool_idle_seconds;
    w_pivots = c C_lp_pivots;
  }

let pp_worker_stats ppf w =
  Format.fprintf ppf
    "nodes=%d incumbents=%d steals=%d handoffs=%d idle=%.3fs pivots=%d"
    w.w_nodes w.w_incumbents w.w_steals w.w_handoffs w.w_idle w.w_pivots

type deduction_stats = {
  rc_fixed : int;
  prop_fixings : int;
  prop_prunes : int;
  prop_seconds : float;
  hook_calls : int;
  hook_give_ups : int;
  hook_pre_lp : int;
  hook_seconds : float;
}

let deductions_of s =
  let c = Metrics.counter_value s and f = Metrics.sum_value s in
  {
    rc_fixed = c C_rc_fixed;
    prop_fixings = c C_prop_fixings;
    prop_prunes = c C_prop_prunes;
    prop_seconds = f S_prop_seconds;
    hook_calls = c C_hook_calls;
    hook_give_ups = c C_hook_give_ups;
    hook_pre_lp = c C_hook_pre_lp;
    hook_seconds = f S_hook_seconds;
  }

let empty_deductions = deductions_of Metrics.empty_snapshot

let pp_deductions ppf d =
  Format.fprintf ppf
    "rc_fixed=%d prop_fixings=%d prop_prunes=%d prop_time=%.3fs \
     hook_calls=%d hook_give_ups=%d hook_pre_lp=%d hook_time=%.3fs"
    d.rc_fixed d.prop_fixings d.prop_prunes d.prop_seconds d.hook_calls
    d.hook_give_ups d.hook_pre_lp d.hook_seconds

type certification_stats = {
  cert_checked : int;
  cert_certified : int;
  cert_refuted : int;
  cert_uncertifiable : int;
  cert_seconds : float;
  root_certificate : Certify.t option;
}

let certification_of s root_certificate =
  let c = Metrics.counter_value s in
  {
    cert_checked = c C_cert_checked;
    cert_certified = c C_certified_nodes;
    cert_refuted = c C_cert_refuted;
    cert_uncertifiable = c C_cert_uncertifiable;
    cert_seconds = Metrics.sum_value s S_cert_seconds;
    root_certificate;
  }

let empty_certification = certification_of Metrics.empty_snapshot None

(* One exact check's tallies, into the checking context's shard. *)
let count_check sh (cert : Certify.t) dt =
  Metrics.incr sh C_cert_checked;
  Metrics.add_sum sh S_cert_seconds dt;
  Metrics.incr sh
    (match cert.verdict with
     | Certify.Certified -> C_certified_nodes
     | Certify.Refuted -> C_cert_refuted
     | Certify.Uncertifiable -> C_cert_uncertifiable)

let single_check cert ~seconds =
  let sh = Metrics.make_shard () in
  count_check sh cert seconds;
  certification_of (Metrics.merge [ sh ]) (Some cert)

let pp_certification ppf c =
  Format.fprintf ppf
    "checked=%d certified=%d refuted=%d uncertifiable=%d time=%.3fs"
    c.cert_checked c.cert_certified c.cert_refuted c.cert_uncertifiable
    c.cert_seconds;
  match c.root_certificate with
  | Some cert -> Format.fprintf ppf " root=%a" Certify.pp cert
  | None -> ()

type stats = {
  nodes : int;
  incumbents : int;
  pivots : int;
  max_depth : int;
  elapsed : float;
  root_obj : float;
  lp_stats : Simplex.stats;
  workers : worker_stats array;
  deductions : deduction_stats;
  certification : certification_stats;
  node_lps : Metrics.node_lp_row array;
  timeline : (float * float * int * Trace.incumbent_source) array;
  bound_timeline : (float * float) array;
      (* (elapsed, best proven dual bound) of each improvement of the
         global lower bound, oldest first; the final entry is the
         authoritative bound of the outcome (= objective on Optimal),
         so together with [timeline] it reconstructs the final gap *)
}

let empty_stats =
  {
    nodes = 0;
    incumbents = 0;
    pivots = 0;
    max_depth = 0;
    elapsed = 0.;
    root_obj = Float.nan;
    lp_stats = Simplex.stats_of_snapshot Metrics.empty_snapshot;
    workers = [||];
    deductions = empty_deductions;
    certification = empty_certification;
    node_lps = [||];
    timeline = [||];
    bound_timeline = [||];
  }

let fractionality v =
  let f = v -. Float.round v in
  Float.abs f

(* Integrality tolerance on a relaxation value's fractionality. *)
let int_tol = 1e-6

(* A node is the list of bound fixings on the path from the root, most
   recent first. [n_bound] is the LP objective of its parent: a valid
   lower bound before the node itself is solved. [fresh] counts the
   entries at the head of [fixes] added when the node was created (the
   branching decision plus inherited deductions): those variables seed
   the node's incremental propagation. *)
type node = {
  fixes : (int * float * float) list;
  depth : int;
  n_bound : float;
  fresh : int;
  parent : int;
      (* processed id of the creating node (-1 for the root); ids are
         assigned from [env.nodes] at evaluation time, so this is only
         meaningful for tree reconstruction from the trace *)
  n_basis : Simplex.basis option;
      (* the parent's optimal basis, which the node's dual simplex
         warm-starts from on whichever context pops it; [None] only at
         the root. Shared physically between siblings. *)
}

let pp_outcome ppf = function
  | Optimal { obj; _ } -> Format.fprintf ppf "optimal (obj = %g)" obj
  | Infeasible -> Format.fprintf ppf "infeasible"
  | Unbounded -> Format.fprintf ppf "unbounded"
  | Limit_reached { best = Some (obj, _); bound } ->
    Format.fprintf ppf "limit reached (incumbent = %g, bound = %g)" obj bound
  | Limit_reached { best = None; bound } ->
    Format.fprintf ppf "limit reached (no incumbent, bound = %g)" bound

(* What a node step reports to its driver, and (in [env.stop]) why the
   search stopped: [Step_ok] while it runs. *)
type step =
  | Step_ok  (* children pushed, pruned, or incumbent installed *)
  | Step_limit  (* node or time limit *)
  | Step_unbounded
  | Step_numeric  (* uncertified iteration limit: stop soundly *)

(* Problem data shared by every search context. The propagation kernel
   is read-only after setup. The root reduced-cost snapshot and the
   root certificate are only written by the seeding phase, which owns
   the root, before any worker domain exists, and the certificate is
   only read after every domain joined. Tallies live in the contexts'
   shards, registered with [reg]. *)
type env = {
  opts : options;
  lp : Lp.t;
  nvars : int;
  int_vars : int list;
  objective : float array;
  root_lb : float array;
  root_ub : float array;
  t0 : float;
  deadline : float;  (* absolute [Mono] time; [infinity] when unlimited *)
  integral_objective : bool;
      (* every solution's objective is an integer: each variable with a
         nonzero objective coefficient is integer, with an integral
         coefficient *)
  nodes : int Atomic.t;  (* nodes evaluated, over every context *)
  stop : step Atomic.t;  (* why the search stopped; [Step_ok] while it runs *)
  reg : Metrics.t;  (* the caller's registry, or a private one *)
  d_prop : Propagate.t;  (* model rows, for node propagation *)
  mutable d_root_rc : (float * float array) option;
      (* root LP objective and reduced costs, for incumbent-driven
         re-fixing of the root bounds *)
  mutable d_rc_cutoff : float;  (* cutoff the root fixing last used *)
  mutable root_cert : Certify.t option;
}

(* The shared incumbent. [best_obj] is read lock-free on the pruning
   fast path; the authoritative solution and both user callbacks are
   protected by [user_lock], which guarantees callbacks never run
   concurrently and improvements are globally monotone. *)
type incumbent = {
  best_obj : float Atomic.t;  (* [infinity] while no incumbent exists *)
  user_lock : Mutex.t;
  mutable best : (float * float array) option;
  mutable timeline : (float * float * int * Trace.incumbent_source) list;
      (* (elapsed, objective, node id, source) of each improving
         install, newest first; guarded by [user_lock] *)
  mutable bounds : (float * float) list;
      (* (elapsed, dual bound) of each improvement of the best proven
         global lower bound, newest first; guarded by [user_lock] *)
  mutable last_bound : float;
      (* newest recorded bound ([neg_infinity] while none); read racily
         as a pre-filter, authoritative under [user_lock] *)
}

let new_incumbent () =
  {
    best_obj = Atomic.make Float.infinity;
    user_lock = Mutex.create ();
    best = None;
    timeline = [];
    bounds = [];
    last_bound = Float.neg_infinity;
  }

(* Bound-delta bookkeeping: one entry per node fixing currently applied
   to the context's engine, newest first. [a_cell] is the suffix of the
   node's [fixes] list starting at the applied entry — path lists share
   tails physically, so walking to the common ancestor of two nodes is
   a physical-equality walk, and moving the engine between nodes costs
   O(path difference) bound writes instead of O(vars). *)
type applied = {
  a_j : int;
  a_lo : float;  (* bounds restored when this entry is undone *)
  a_hi : float;
  a_cell : (int * float * float) list;
}

(* One search context per driving domain: its own simplex engine (built
   at the context's first LP), its own push target, its own shard.
   [det] switches pruning to the context-local bound [local_best] so
   node counts cannot depend on cross-domain timing. *)
type ctx = {
  env : env;
  inc : incumbent;
  mutable st : Simplex.state option;
      (* [None] until the first node LP: a search that presolve or the
         hook settles before any LP never builds an engine *)
  push : node -> unit;
  halt : step -> unit;
      (* records why the search stops ({!flag_stop}) and wakes whatever
         waits on this context's driver *)
  msh : Metrics.shard;
      (* this context's one telemetry handle: its tallies, its engine's,
         its node-LP samples and its single-writer trace buffer *)
  det : bool;
  set_root : bool;  (* this context solves the root relaxation *)
  cur_lb : float array;  (* the node's bounds, mirrored into the engine
                            once it exists; only [move_to] and
                            [refix_root] write it *)
  cur_ub : float array;
  prop_lb : float array;  (* scratch bounds node propagation runs on *)
  prop_ub : float array;
  mutable applied : applied list;  (* fixings currently applied, newest first *)
  mutable n_applied : int;
  mutable last_basis : Simplex.basis option;
      (* the basis just exported from [st], until the next solve moves
         the engine off it: a child carrying it physically needs no
         reinstall (the engine is already there) *)
  mutable first_solve : bool;
  mutable local_best : float;
  mutable k_max_depth : int;
  mutable k_root_obj : float;
}

(* Call from the domain that drives the context: the engine, the shard
   and the trace writer [tw] belong to it. *)
let make_ctx env ~inc ~push ~halt ~tw ~det ~set_root ~local_best =
  let msh = Metrics.make_shard ~registry:env.reg ~writer:tw () in
  (* The root bounds may already be tightened by reduced-cost fixing (a
     worker built after the seeding phase), so the mirror starts from
     them. *)
  {
    env;
    inc;
    st = None;
    push;
    halt;
    msh;
    det;
    set_root;
    cur_lb = Array.copy env.root_lb;
    cur_ub = Array.copy env.root_ub;
    prop_lb = Array.copy env.root_lb;
    prop_ub = Array.copy env.root_ub;
    applied = [];
    n_applied = 0;
    last_basis = None;
    first_solve = true;
    local_best;
    k_max_depth = 0;
    k_root_obj = Float.nan;
  }

(* The context's engine, built on first use from the model with the
   mirrored bounds of the node being processed. *)
let engine ctx =
  match ctx.st with
  | Some st -> st
  | None ->
    let st = Simplex.create ~shard:ctx.msh ctx.env.lp in
    for j = 0 to ctx.env.nvars - 1 do
      Simplex.set_var_bounds st j ~lb:ctx.cur_lb.(j) ~ub:ctx.cur_ub.(j)
    done;
    ctx.st <- Some st;
    st

(* Write bound [j] into the mirror, and into the engine if it exists. *)
let set_bounds ctx j ~lb ~ub =
  ctx.cur_lb.(j) <- lb;
  ctx.cur_ub.(j) <- ub;
  Option.iter (fun st -> Simplex.set_var_bounds st j ~lb ~ub) ctx.st

(* Is [ctx] processing the root node right now? *)
let at_root ctx = ctx.set_root && Metrics.count ctx.msh C_nodes = 1

(* Move the engine's bounds from the previously processed node's fix
   path to [fixes]: undo applied entries down to the two paths' common
   ancestor, then apply the target-side entries root-first. Children
   extend their parent's [fixes] physically, so the common ancestor is
   found by a physical-equality lockstep walk and the whole move costs
   O(path difference) bound writes — no O(vars) array copies on the
   node hot path. *)
let move_to ctx fixes =
  let undo_one () =
    match ctx.applied with
    | [] -> assert false
    | e :: rest ->
      ctx.applied <- rest;
      ctx.n_applied <- ctx.n_applied - 1;
      set_bounds ctx e.a_j ~lb:e.a_lo ~ub:e.a_hi
  in
  let apply_one cell =
    match cell with
    | [] -> assert false
    | (j, lo, hi) :: _ ->
      ctx.applied <-
        { a_j = j; a_lo = ctx.cur_lb.(j); a_hi = ctx.cur_ub.(j); a_cell = cell }
        :: ctx.applied;
      ctx.n_applied <- ctx.n_applied + 1;
      set_bounds ctx j ~lb:lo ~ub:hi
  in
  let rec path_len l n = match l with [] -> n | _ :: t -> path_len t (n + 1) in
  let nb = path_len fixes 0 in
  while ctx.n_applied > nb do
    undo_one ()
  done;
  (* strip the (possibly deeper) target down to the applied length,
     remembering the stripped cells; the prepends leave [to_apply]
     root-most first, which is the application order *)
  let to_apply = ref [] in
  let b = ref fixes in
  for _ = 1 to nb - ctx.n_applied do
    to_apply := !b :: !to_apply;
    b := List.tl !b
  done;
  let cur () = match ctx.applied with [] -> [] | e :: _ -> e.a_cell in
  while cur () != !b do
    to_apply := !b :: !to_apply;
    b := List.tl !b;
    undo_one ()
  done;
  List.iter apply_one !to_apply

let best_seen ctx =
  if ctx.det then ctx.local_best else Atomic.get ctx.inc.best_obj

(* Record an improvement of the global dual (lower) bound. [b] must be
   a valid lower bound on every open node at the time of the call —
   staleness is fine (a stale bound is a weaker, still-valid one), an
   optimistic bound is not. The racy [last_bound] pre-check keeps the
   no-progress case lock-free. *)
let note_bound inc env b =
  if Float.is_finite b && b > inc.last_bound +. 1e-9 then
    Mutex.protect inc.user_lock (fun () ->
        if b > inc.last_bound +. 1e-9 then begin
          inc.last_bound <- b;
          inc.bounds <- (Mono.elapsed_since env.t0, b) :: inc.bounds;
          Metrics.set_gauge env.reg G_best_bound b
        end)

(* Pruning cutoff given the current incumbent ([infinity] when none —
   the subtractions below leave infinities alone). *)
let cutoff ctx =
  let b = best_seen ctx in
  if ctx.env.integral_objective then b -. 1. +. 1e-6 else b -. 1e-6

let is_integral env x =
  List.for_all (fun j -> fractionality x.(j) <= int_tol) env.int_vars

let choose_branch env x ~is_fixed =
  let fallback () =
    let best_j = ref (-1) and best_f = ref int_tol in
    List.iter
      (fun j ->
        let f = fractionality x.(j) in
        if f > !best_f then begin
          best_j := j;
          best_f := f
        end)
      env.int_vars;
    if !best_j < 0 then None else Some !best_j
  in
  match env.opts.branch_rule with
  | None -> fallback ()
  | Some rule -> (
    (* A custom rule may branch on an unfixed variable even when it is
       integral in the relaxation — fixing it still partitions the search
       space, and problem-specific hooks can then resolve the fully-fixed
       subtrees combinatorially. *)
    match rule ~lp_solution:x ~is_fixed with
    | Some j when not (is_fixed j) -> Some j
    | Some _ | None -> fallback ())

(* Install an incumbent; must be called with [inc.user_lock] held.
   Returns whether the global best actually improved (a concurrent
   worker may have installed a better one since the caller's check). *)
let install ctx ~node_no ~source obj x =
  let inc = ctx.inc in
  let improves =
    match inc.best with None -> true | Some (b, _) -> obj < b -. 1e-9
  in
  if improves then begin
    inc.best <- Some (obj, Array.copy x);
    Atomic.set inc.best_obj obj;
    inc.timeline <-
      (Mono.elapsed_since ctx.env.t0, obj, node_no, source) :: inc.timeline;
    Metrics.incr ctx.msh C_incumbents;
    Metrics.set_gauge ctx.env.reg G_incumbent_obj obj;
    let tw = Metrics.writer ctx.msh in
    if Trace.active tw then
      Trace.emit tw (Trace.Incumbent { node = node_no; obj; source });
    match ctx.env.opts.on_incumbent with Some f -> f obj x | None -> ()
  end;
  improves

(* The one acceptance path: feasibility-checked, fires [on_incumbent].
   Returns [false] only when the feasibility guard rejected [x].
   [locked] marks calls made from inside [run_hook], which already
   holds the user lock (it is not reentrant). [source] tags where the
   candidate came from (search or hook). *)
let accept_incumbent ?(locked = false) ?(source = Trace.Src_search) ctx
    ~node_no ~depth x =
  let obj =
    Array.fold_left ( +. ) 0.
      (Array.mapi (fun j c -> c *. x.(j)) ctx.env.objective)
  in
  if obj >= best_seen ctx -. 1e-9 then true
  else if
    (* Guard against solver drift: an incumbent must satisfy the
       original rows and root bounds. *)
    Feas_check.is_feasible ~tol:1e-5 ctx.env.lp x
  then begin
    if ctx.det && obj < ctx.local_best then ctx.local_best <- obj;
    let installed =
      if locked then install ctx ~node_no ~source obj x
      else
        Mutex.protect ctx.inc.user_lock (fun () ->
            install ctx ~node_no ~source obj x)
    in
    if installed then
      Log.info (fun f ->
          f "incumbent %g at node %d depth %d (%s)" obj node_no depth
            (Trace.incumbent_source_name source));
    true
  end
  else begin
    Log.warn (fun f ->
        f "discarded numerically infeasible incumbent at node %d" node_no);
    false
  end

(* Node hook: a problem-specific completion heuristic may inject a full
   incumbent and/or prune this subtree. The whole hook invocation runs
   under the user lock, so hooks and incumbent callbacks are mutually
   serialized across workers; the hook's time is taken inside the lock,
   so waiting for it does not count. *)
let run_hook ctx ~node_no ~depth point ~is_fixed =
  match ctx.env.opts.node_hook with
  | None -> false
  | Some hook ->
    Mutex.protect ctx.inc.user_lock (fun () ->
        let t = Mono.now () in
        let r = hook point ~is_fixed in
        Metrics.incr ctx.msh C_hook_calls;
        Metrics.add_sum ctx.msh S_hook_seconds (Mono.elapsed_since t);
        match r with
        | Hook_none -> false
        | Hook_gave_up what ->
          Metrics.incr ctx.msh C_hook_give_ups;
          Log.info (fun f -> f "hook gave up at node %d: %s" node_no what);
          let tw = Metrics.writer ctx.msh in
          if Trace.active tw then
            Trace.emit tw (Trace.Hook_give_up { node = node_no; what });
          false
        | Hook_incumbent v ->
          ignore
            (accept_incumbent ~locked:true ~source:Trace.Src_hook ctx
               ~node_no ~depth v);
          false
        | Hook_prune -> true
        | Hook_incumbent_and_prune v ->
          ignore
            (accept_incumbent ~locked:true ~source:Trace.Src_hook ctx
               ~node_no ~depth v);
          true)

(* Re-run root reduced-cost fixing against an improved incumbent: pure
   arithmetic on the root duals saved by the root solve, mutating the
   root bound arrays in place. The context's applied path is undone
   first (its entries restore pre-fixing root bounds), then the fixed
   root bounds go into the mirror and the engine. Only called on the
   context that solved the root, in the seeding phase, never
   concurrently with worker domains. *)
let refix_root ctx =
  let env = ctx.env in
  match env.d_root_rc with
  | None -> ()
  | Some (robj, dj) ->
    let c = cutoff ctx in
    if c < env.d_rc_cutoff -. 1e-12 then begin
      env.d_rc_cutoff <- c;
      let fixed = ref [] in
      List.iter
        (fun j ->
          let lo = env.root_lb.(j) and hi = env.root_ub.(j) in
          if hi -. lo > 1e-9 && hi -. lo <= 1. +. 1e-9 then begin
            let d = dj.(j) in
            if d > 1e-9 && robj +. d >= c +. 1e-9 then begin
              env.root_ub.(j) <- lo;
              fixed := j :: !fixed
            end
            else if d < -1e-9 && robj -. d >= c +. 1e-9 then begin
              env.root_lb.(j) <- hi;
              fixed := j :: !fixed
            end
          end)
        env.int_vars;
      if !fixed <> [] then begin
        move_to ctx [];
        List.iter
          (fun j -> set_bounds ctx j ~lb:env.root_lb.(j) ~ub:env.root_ub.(j))
          !fixed;
        let n = List.length !fixed in
        Metrics.add ctx.msh C_rc_fixed n;
        Log.debug (fun f -> f "root reduced-cost fixing: %d variables" n)
      end
    end

(* Certify one node's LP verdict exactly. Must run immediately after
   the solve that produced [res], before any further pivoting on
   [ctx.st] (the snapshot captures the live basis). Certification
   leaves the engine untouched, and a refuted verdict is counted and
   logged, never steered on. A certified node does solve its LP before
   the hook may settle it, so its pivots and close reason can differ
   from the unchecked search's. *)
let certify_node ctx ~nno res =
  let t = Mono.now () in
  let snap = Simplex.snapshot (engine ctx) in
  let cert = Certify.check snap res in
  let dt = Mono.elapsed_since t in
  count_check ctx.msh cert dt;
  if cert.Certify.verdict = Certify.Refuted then
    Log.warn (fun f ->
        f "node %d LP verdict refuted by exact check: %s" nno
          (Certify.describe cert));
  if at_root ctx then ctx.env.root_cert <- Some cert;
  let tw = Metrics.writer ctx.msh in
  if Trace.active tw then begin
    let verdict =
      match cert.Certify.verdict with
      | Certify.Certified -> Trace.Cert_certified
      | Certify.Refuted -> Trace.Cert_refuted
      | Certify.Uncertifiable -> Trace.Cert_uncertifiable
    in
    Trace.emit tw
      (Trace.Cert_check
         { node = nno; verdict; kind = Certify.kind_name cert.Certify.detail; dt })
  end

(* Evaluate one node on [ctx]'s engine: bound setup, domain
   propagation, the hook on the node's bounds, (warm) LP solve, the
   hook on the LP point, incumbent tests, reduced-cost fixing,
   branching. Drivers decide what a step result means for the overall
   search. *)
let process_node ctx node =
  let env = ctx.env in
  let opts = env.opts in
  let nno = Atomic.fetch_and_add env.nodes 1 + 1 in
  Metrics.incr ctx.msh C_nodes;
  if node.depth > ctx.k_max_depth then ctx.k_max_depth <- node.depth;
  let tw = Metrics.writer ctx.msh in
  if Trace.active tw then
    Trace.emit tw
      (Trace.Node_open
         {
           id = nno;
           parent = node.parent;
           depth = node.depth;
           bound = node.n_bound;
         });
  (* Every exit path below closes the node with its reason and records
     its LP sample; [obj] is the node LP objective, [nan] when the LP
     never produced one. A node the search stops on numerically stays
     open: it goes back onto the context's stack, bounded by its own LP
     objective when it has one, so the limit's bound covers it. *)
  let pivots () = Metrics.count ctx.msh C_lp_pivots in
  let pivots0 = pivots () and lp_seconds = ref 0. in
  let close reason ~obj step =
    Metrics.node_lp ctx.msh reason
      ~pivots:(pivots () - pivots0)
      ~seconds:!lp_seconds;
    if Trace.active tw then
      Trace.emit tw (Trace.Node_close { id = nno; obj; reason });
    if step = Step_numeric then
      ctx.push
        (if Float.is_nan obj then node
         else { node with n_bound = Float.max node.n_bound obj });
    step
  in
  (* The node's bounds: [move_to] edits the engine and the mirrored
     arrays in place — O(path difference to the previous node), no
     per-node allocation. Every deduction below extends the applied path
     the same way, so [lb]/[ub] always mirror the engine. *)
  move_to ctx node.fixes;
  let lb = ctx.cur_lb and ub = ctx.cur_ub in
  (* Per-node propagation: cascade the fresh bound changes through the
     rows touching them before paying for any LP pivot. It runs on
     scratch copies, so a conflicting run's partial writes need no
     undo; a conflict prunes the node outright. *)
  let propagation =
    let seeds =
      if node.fresh = 0 then None
      else
        Some
          (List.filteri (fun i _ -> i < node.fresh) node.fixes
          |> List.map (fun (j, _, _) -> j))
    in
    let t = Mono.now () in
    Array.blit lb 0 ctx.prop_lb 0 env.nvars;
    Array.blit ub 0 ctx.prop_ub 0 env.nvars;
    let out =
      Propagate.run env.d_prop ~lb:ctx.prop_lb ~ub:ctx.prop_ub ?seeds
        ~metrics:ctx.msh ()
    in
    Metrics.add_sum ctx.msh S_prop_seconds (Mono.elapsed_since t);
    match out with
    | Propagate.Ok d -> Some d.Propagate.fixes
    | Propagate.Empty_domain _ | Propagate.Conflict _ ->
      Metrics.incr ctx.msh C_prop_prunes;
      None
  in
  match propagation with
  | None ->
    Log.debug (fun f -> f "node %d pruned by propagation" nno);
    close Trace.Prop_pruned ~obj:Float.nan Step_ok
  | Some prop_fixes ->
    (* The propagated bounds extend the node's path. *)
    let path = prop_fixes @ node.fixes in
    move_to ctx path;
    let is_fixed j = ub.(j) -. lb.(j) <= 1e-9 in
    let bounds_hook () =
      run_hook ctx ~node_no:nno ~depth:node.depth (Bounds lb) ~is_fixed
    in
    (* A node whose LP verdict is certified solves and checks its LP
       before the hook may settle it; every other node first asks the
       hook what its bounds alone decide. *)
    let lp_certified =
      match opts.certify_level with
      | Cert_off -> false
      | Cert_all -> true
      | Cert_root | Cert_incumbents -> at_root ctx
    in
    if (not lp_certified) && bounds_hook () then begin
      (* Settled without an LP. The engine has not moved, yet
         [last_basis] is dropped as after a solve: the next node
         reinstalls its parent's basis exactly as it did when this node
         solved its LP, so every LP that still runs takes the same
         pivots. *)
      ctx.last_basis <- None;
      Metrics.incr ctx.msh C_hook_pre_lp;
      close Trace.Hook_pruned ~obj:Float.nan Step_ok
    end
    else begin
      (* Warm start: every node but the root carries its parent's optimal
         basis. Install it unless the engine is already there (the DFS
         fast path: the first child popped after branching finds
         [last_basis] physically equal to its own); a backtracked sibling
         or a stolen node reinstalls it. A failed install leaves the
         engine unspecified — fall back to a cold solve. *)
      let st = engine ctx in
      (match (node.n_basis, ctx.last_basis) with
       | Some b, Some cur when cur == b -> ()
       | Some b, _ when opts.warm_start ->
         if Simplex.install_basis st b then ctx.first_solve <- false
         else begin
           Log.warn (fun f ->
               f "node %d: parent basis install failed; solving cold" nno);
           ctx.first_solve <- true
         end
       | _ -> ());
      let t_lp = Mono.now () in
      let res =
        if ctx.first_solve || not opts.warm_start then Simplex.primal st
        else Simplex.dual_reopt st
      in
      ctx.first_solve <- false;
      ctx.last_basis <- None;
      let res =
        match res.Simplex.status with
        | Simplex.Iter_limit ->
          Log.warn (fun f -> f "node %d hit the pivot limit; restarting" nno);
          Simplex.primal st
        | _ -> res
      in
      lp_seconds := Mono.elapsed_since t_lp;
      if at_root ctx then
        ctx.k_root_obj <-
          (match res.Simplex.status with
           | Simplex.Optimal -> res.Simplex.obj
           | _ -> Float.nan);
      (* Exact certification, while the basis behind [res] is still the
         engine's live basis (nothing below re-solves on [ctx.st]). *)
      (match opts.certify_level with
       | Cert_off -> ()
       | Cert_all -> certify_node ctx ~nno res
       | Cert_root -> if at_root ctx then certify_node ctx ~nno res
       | Cert_incumbents ->
         let integral_opt =
           match res.Simplex.status with
           | Simplex.Optimal -> is_integral env res.Simplex.x
           | _ -> false
         in
         if at_root ctx || integral_opt then
           certify_node ctx ~nno res);
      (* A limit-hit relaxation is still usable when its residual norms
         certify the basic solution is primal and dual feasible within
         tolerance: by weak duality its objective is then within roundoff
         of the LP optimum, so it serves as the node bound (with a safety
         margin, applied below). Without that certificate the objective is
         garbage and the only sound move is to stop. *)
      let usable_limit =
        res.Simplex.status = Simplex.Iter_limit
        && res.Simplex.primal_res <= 1e-6
        && res.Simplex.dual_res <= 1e-6
      in
      (match res.Simplex.status with
       | Simplex.Infeasible ->
         close Trace.Infeasible_node ~obj:Float.nan Step_ok
       | Simplex.Iter_limit when not usable_limit ->
         Log.warn (fun f ->
             f "node %d unsolvable numerically; reporting limit" nno);
         close Trace.Numeric ~obj:Float.nan Step_numeric
       | Simplex.Unbounded ->
         (* An unbounded relaxation at the root of an all-binary model
            means the MILP itself is unbounded or infeasible (branching
            cannot repair an unbounded LP). *)
         close Trace.Unbounded_node ~obj:Float.nan Step_unbounded
       | Simplex.Optimal | Simplex.Iter_limit ->
         (* Iter_limit only reaches here residual-certified; relax its
            objective by a margin so near-optimality cannot prune a
            subtree the true LP bound would keep open. *)
         let margin =
           if res.Simplex.status = Simplex.Iter_limit then 1e-5 else 0.
         in
         let obj = res.Simplex.obj -. margin and x = res.Simplex.x in
         let hook_says_prune =
           (lp_certified && bounds_hook ())
           || run_hook ctx ~node_no:nno ~depth:node.depth (Lp_solution x)
                ~is_fixed
         in
         if hook_says_prune then close Trace.Hook_pruned ~obj Step_ok
         else if obj >= cutoff ctx then
           close Trace.Bound_pruned ~obj Step_ok (* dominated *)
         else begin
           let integral = is_integral env x in
           let accepted =
             integral && accept_incumbent ctx ~node_no:nno ~depth:node.depth x
           in
           if obj >= cutoff ctx then
             (* the fresh incumbent closed it *)
             close
               (if integral then Trace.Integral else Trace.Bound_pruned)
               ~obj Step_ok
           else begin
             (* Reduced-cost fixing: at a certified LP optimum with
                objective [obj], a nonbasic 0-1 variable whose reduced
                cost alone moves the objective past the cutoff when the
                variable leaves its bound can be fixed there for the
                whole subtree. The duals come free with the LP result. *)
             let rc_fixes =
               if
                 Array.length res.Simplex.dj > 0
                 && Float.is_finite (best_seen ctx)
               then begin
                 let c = cutoff ctx in
                 let acc = ref [] in
                 List.iter
                   (fun j ->
                     let span = ub.(j) -. lb.(j) in
                     if span > 1e-9 && span <= 1. +. 1e-9 then begin
                       let d = res.Simplex.dj.(j) in
                       if d > 1e-9 && obj +. d >= c +. 1e-9 then
                         acc := (j, lb.(j), lb.(j)) :: !acc
                       else if d < -1e-9 && obj -. d >= c +. 1e-9 then
                         acc := (j, ub.(j), ub.(j)) :: !acc
                     end)
                   env.int_vars;
                 Metrics.add ctx.msh C_rc_fixed (List.length !acc);
                 !acc
               end
               else []
             in
             (* The fixings extend the path before branching, so
                [is_fixed] and the branching bounds see them. *)
             let path = rc_fixes @ path in
             move_to ctx path;
             (* Save the root duals once so incumbent improvements can
                re-fix at the root later ({!refix_root}). *)
             if
               ctx.set_root && node.fixes = []
               && Array.length res.Simplex.dj > 0
             then env.d_root_rc <- Some (obj, Array.copy res.Simplex.dj);
             match choose_branch env x ~is_fixed with
             | None when accepted ->
               (* Only an integral point leaves no branching variable.
                  This one passed the guard, yet its LP objective sits
                  below the cutoff the point set (a residual-certified
                  limit's margin): the point is the node's LP optimum,
                  so nothing below it is better. *)
               close Trace.Integral ~obj Step_ok
             | None ->
               (* The feasibility guard rejected the integral point.
                  Nothing below this node is certain: stop and report a
                  limit, as on an uncertified iteration limit. *)
               Log.warn (fun f ->
                   f "node %d: integral LP point rejected; reporting limit"
                     nno);
               close Trace.Numeric ~obj Step_numeric
             | Some j ->
               let v = x.(j) in
               (* Current node bounds for j (deductions included). *)
               let lo_j = lb.(j) and hi_j = ub.(j) in
               let nfresh = 1 + List.length rc_fixes + List.length prop_fixes in
               (* Ship this node's optimal basis with the children: each
                  warm-starts its dual simplex from here, whichever
                  context pops it. Both children share the same physical
                  basis, so the DFS fast path can skip the install. *)
               let b = Simplex.export_basis st in
               ctx.last_basis <- Some b;
               let child lo hi =
                 {
                   fixes = (j, lo, hi) :: path;
                   depth = node.depth + 1;
                   n_bound = obj;
                   fresh = nfresh;
                   parent = nno;
                   n_basis = Some b;
                 }
               in
               (if fractionality v <= int_tol then begin
                  (* Branching on an integral value (a rule may resolve
                     unfixed variables): children are the fixed point and
                     the complement interval(s) — floor/ceil would
                     reproduce the parent. *)
                  let vi = Float.round v in
                  if vi -. 1. >= lo_j then ctx.push (child lo_j (vi -. 1.));
                  if vi +. 1. <= hi_j then ctx.push (child (vi +. 1.) hi_j);
                  (* push the fixed child last so the dive continues
                     through the current relaxation's value *)
                  ctx.push (child vi vi)
                end
                else begin
                  (* stack: push the up (value-1) child last so it pops
                     first *)
                  ctx.push (child lo_j (Float.floor v));
                  ctx.push (child (Float.ceil v) hi_j)
                end);
               close
                 (Trace.Branched { var = j; frac = fractionality v })
                 ~obj Step_ok
           end
         end)
    end

(* Whether every solution's objective value is an integer: each
   variable with a nonzero objective coefficient [obj.(j)] is integer,
   and that coefficient is integral. *)
let integral_objective lp obj =
  let rec from j =
    j = Array.length obj
    || (obj.(j) = 0.
        || Float.is_integer obj.(j)
           && Lp.is_integer_var lp (Lp.var_of_int lp j))
       && from (j + 1)
  in
  from 0

let make_env options lp t0 =
  let n = Lp.num_vars lp in
  let objective = Lp.objective lp in
  {
    opts = options;
    lp;
    nvars = n;
    int_vars =
      List.map (fun (v : Lp.var) -> (v :> int)) (Lp.integer_vars lp);
    objective;
    root_lb = Array.init n (fun j -> Lp.var_lb lp (Lp.var_of_int lp j));
    root_ub = Array.init n (fun j -> Lp.var_ub lp (Lp.var_of_int lp j));
    t0;
    deadline = t0 +. options.time_limit;
    integral_objective = integral_objective lp objective;
    nodes = Atomic.make 0;
    stop = Atomic.make Step_ok;
    reg =
      (match options.metrics with Some r -> r | None -> Metrics.create ());
    d_prop = Propagate.of_lp lp;
    d_root_rc = None;
    d_rc_cutoff = Float.infinity;
    root_cert = None;
  }

let finitize b = if Float.is_finite b then b else Float.neg_infinity

(* The authoritative dual bound of a finished search, appended to the
   bound timeline so its last entry always reconstructs the final gap:
   the proven optimum when one exists, the best open bound on a limit
   (nan — filtered by [note_bound] — when no bound is meaningful). *)
let outcome_bound = function
  | Optimal { obj; _ } -> obj
  | Limit_reached { bound; _ } -> bound
  | Infeasible | Unbounded -> Float.nan

let root_node =
  {
    fixes = [];
    depth = 0;
    n_bound = Float.neg_infinity;
    fresh = 0;
    parent = -1;
    n_basis = None;
  }

(* The statistics of a finished search: one snapshot of its contexts'
   shards, taken after every worker joined. [driver] is the context that
   solved the root; [workers] the worker contexts ([None] for a worker
   that never ran). *)
let finish env inc outcome ~driver ~workers =
  note_bound inc env (outcome_bound outcome);
  let ctxs = driver :: List.filter_map Fun.id (Array.to_list workers) in
  let s = Metrics.merge (List.map (fun ctx -> ctx.msh) ctxs) in
  let c = Metrics.counter_value s in
  let fold f init = List.fold_left (fun acc ctx -> f acc ctx) init ctxs in
  {
    nodes = c C_nodes;
    incumbents = c C_incumbents;
    pivots = c C_lp_pivots;
    max_depth = fold (fun d ctx -> Int.max d ctx.k_max_depth) 0;
    elapsed = Mono.elapsed_since env.t0;
    root_obj = driver.k_root_obj;
    lp_stats =
      Simplex.stats_of_snapshot
        ~fill:
          (fold
             (fun m ctx ->
               match ctx.st with
               | Some st -> Int.max m (Simplex.fill st)
               | None -> m)
             0)
        s;
    workers =
      Array.map
        (function
          | Some w -> worker_of (Metrics.merge [ w.msh ])
          | None -> worker_of Metrics.empty_snapshot)
        workers;
    deductions = deductions_of s;
    certification = certification_of s env.root_cert;
    node_lps = Metrics.node_lp_table (List.map (fun ctx -> ctx.msh) ctxs);
    timeline = Array.of_list (List.rev inc.timeline);
    bound_timeline = Array.of_list (List.rev inc.bounds);
  }

(* ------------------------------------------------------------------ *)
(* Drivers. The seeding phase runs the depth-first search on the
   caller's domain; at [jobs = 1] it runs to the end and is the whole
   search. At [jobs > 1] it stops once its frontier can feed the crew,
   and the worker phase spawns one domain per worker, each with its own
   search context and simplex engine, running depth-first on a private
   deque and donating shallow subtrees through the shared pool when it
   runs hungry. Deterministic mode skips the pool: seeds are dealt
   round-robin and pruning uses only context-local bounds, so node
   counts cannot depend on cross-domain timing. *)

(* Record why the search stops; the first reason wins. *)
let flag_stop env code = ignore (Atomic.compare_and_set env.stop Step_ok code)

let stopped env = match Atomic.get env.stop with Step_ok -> false | _ -> true

let min_bound acc (nd : node) = Float.min acc nd.n_bound

(* The one node step of every driver: root re-fixing on the context
   that solved the root, then the node and time limits, the bound
   cutoff and [process_node]. Returns whether [process_node] ran and
   the search goes on. *)
let run_node ctx node =
  let env = ctx.env in
  if ctx.set_root then refix_root ctx;
  if
    stopped env
    || Atomic.get env.nodes >= env.opts.max_nodes
    || Mono.now () > env.deadline
  then begin
    (* the node stays open, so the limit's bound covers it *)
    ctx.push node;
    ctx.halt Step_limit;
    false
  end
  else if node.n_bound >= cutoff ctx then false (* pruned by bound *)
  else
    match process_node ctx node with
    | Step_ok -> true
    | code ->
      ctx.halt code;
      false

(* The worker phase of a [jobs > 1] search, from the seeding phase's
   frontier [seeds] (top first). Returns the best bound over the nodes
   left open and the worker contexts. *)
let run_workers env inc seeds =
  let opts = env.opts in
  let jobs = opts.jobs in
  let pool : node Pool.t option =
    if opts.deterministic then None
    else begin
      let p = Pool.create ~workers:jobs in
      (* bottom-first, so the pool pops the deepest seed first *)
      List.iter (Pool.push p) (List.rev seeds);
      Some p
    end
  in
  let halt code =
    flag_stop env code;
    Option.iter Pool.stop pool
  in
  let det_best0 = Atomic.get inc.best_obj in
  let failure : exn option Atomic.t = Atomic.make None in
  (* Worker deques are allocated on the spawning domain so the metrics
     poll below can sample their lengths; each deque is still written
     only by its worker. [mirrors.(wi)] is worker [wi]'s published lower
     bound on everything it holds (deque + node in hand), kept only when
     the caller's registry may be sampled: refreshed at the top of
     [handle] — children pushed later bound at least the processed
     node's objective, so the published value stays valid (if
     stale-low) until the next refresh. Deterministic mode deals seeds
     before the workers start, so mirrors begin at each deal's min;
     pool-fed workers start empty ([infinity] — the pool fold covers
     the seeds). *)
  let sampled = Option.is_some opts.metrics in
  let locals = Array.init jobs (fun _ -> Pool.Deque.create ()) in
  let deal wi =
    if opts.deterministic then List.filteri (fun i _ -> i mod jobs = wi) seeds
    else []
  in
  let mirrors =
    Array.init jobs (fun wi ->
        Atomic.make (List.fold_left min_bound Float.infinity (deal wi)))
  in
  (* Sampler-driven observability: open-node and pool-depth gauges from
     racy deque lengths, and the global dual bound as the min of the
     worker mirrors and a locked fold over the pool. A sample racing
     the instant between a steal and the stealing worker's mirror
     update can transiently overstate the bound; the timeline's final
     entry (from the outcome) is authoritative. [polling] fences the
     closures off once the solve returns. *)
  let polling = ref true in
  Metrics.on_snapshot env.reg (fun () ->
      if !polling then begin
        let in_pool = match pool with Some p -> Pool.queued p | None -> 0 in
        let open_n =
          Array.fold_left (fun acc d -> acc + Pool.Deque.length d) in_pool locals
        in
        Metrics.set_gauge env.reg G_open_nodes (Float.of_int open_n);
        if Option.is_some pool then
          Metrics.set_gauge env.reg G_pool_depth (Float.of_int in_pool);
        let b =
          Array.fold_left
            (fun acc m -> Float.min acc (Atomic.get m))
            Float.infinity mirrors
        in
        let b =
          match pool with Some p -> Pool.fold min_bound b p | None -> b
        in
        note_bound inc env b
      end);
  let worker wi () =
    let my_seeds = deal wi in
    let local : node Pool.Deque.t = locals.(wi) in
    List.iter (Pool.Deque.push local) (List.rev my_seeds);
    (* Registered from inside the spawned domain: this domain is the
       buffers' single writer for the whole search. *)
    let tw = Trace.make_writer opts.tracer (Printf.sprintf "worker %d" wi) in
    let ctx =
      make_ctx env ~inc ~push:(Pool.Deque.push local) ~halt ~tw
        ~det:opts.deterministic ~set_root:false
        ~local_best:
          (if opts.deterministic then det_best0 else Float.infinity)
    in
    let msh = ctx.msh in
    let handle node =
      if sampled then
        Atomic.set mirrors.(wi) (Pool.Deque.fold min_bound node.n_bound local);
      if run_node ctx node then
        match pool with
        | Some p when Pool.Deque.length local > 1 ->
          Metrics.incr msh C_pool_hungry_polls;
          if Pool.hungry p then (
            (* donate the bottom of the deque: the shallowest, largest
               open subtree this worker holds *)
            match Pool.Deque.pop_bottom local with
            | Some nd ->
              Pool.push p nd;
              Metrics.incr msh C_pool_handoffs
            | None -> ())
        | _ -> ()
    in
    let rec drive () =
      if stopped env then ()
      else
        match Pool.Deque.pop local with
        | Some node ->
          handle node;
          drive ()
        | None -> (
          match pool with
          | None -> () (* deterministic: private work is all there is *)
          | Some p -> (
            (* Nothing held locally while blocked in [take]. *)
            if sampled then Atomic.set mirrors.(wi) Float.infinity;
            let t = Mono.now () in
            let taken = Pool.take p in
            Metrics.add_sum msh S_pool_idle_seconds (Mono.elapsed_since t);
            match taken with
            | None -> ()
            | Some node ->
              (* Publish the stolen node's bound before anything else:
                 it left the pool's fold when [take] removed it. *)
              if sampled then Atomic.set mirrors.(wi) node.n_bound;
              Metrics.incr msh C_pool_steals;
              handle node;
              drive ()))
    in
    if Trace.active tw then Trace.emit tw (Trace.Span_begin "worker");
    (try drive ()
     with e ->
       ignore (Atomic.compare_and_set failure None (Some e));
       halt Step_numeric);
    if Trace.active tw then Trace.emit tw (Trace.Span_end "worker");
    (ctx, Pool.Deque.fold min_bound Float.infinity local)
  in
  let rets =
    Array.map Domain.join (Array.init jobs (fun wi -> Domain.spawn (worker wi)))
  in
  polling := false;
  (match Atomic.get failure with Some e -> raise e | None -> ());
  (* Best bound over everything still open: leftover pool items and the
     workers' leftover private deques. *)
  let open_bound =
    match pool with
    | Some p -> List.fold_left min_bound Float.infinity (Pool.drain p)
    | None -> Float.infinity
  in
  ( Array.fold_left (fun acc (_, o) -> Float.min acc o) open_bound rets,
    Array.map (fun (w, _) -> Some w) rets )

let solve ?(options = default_options) lp =
  if options.jobs < 1 then invalid_arg "Branch_bound.solve: jobs < 1";
  let env = make_env options lp (Mono.now ()) in
  let jobs = options.jobs in
  Metrics.set_gauge env.reg G_workers (Float.of_int jobs);
  let tw = Trace.main options.tracer in
  let inc = new_incumbent () in
  let dq : node Pool.Deque.t = Pool.Deque.create () in
  let ctx =
    make_ctx env ~inc ~push:(Pool.Deque.push dq) ~halt:(flag_stop env) ~tw
      ~det:false ~set_root:true ~local_best:Float.infinity
  in
  (* Open-node gauge for the metrics sampler while seeding runs: a racy
     read of the deque's length from the snapshotting domain. [seeding]
     fences the closure off once the phase ends, so a later snapshot
     cannot clobber gauges the worker phase or the caller publish. *)
  let seeding = ref true in
  Metrics.on_snapshot env.reg (fun () ->
      if !seeding then
        Metrics.set_gauge env.reg G_open_nodes
          (Float.of_int (Pool.Deque.length dq)));
  Pool.Deque.push dq root_node;
  let span = if jobs = 1 then "search" else "seed" in
  if Trace.active tw then Trace.emit tw (Trace.Span_begin span);
  (* At [jobs > 1] the phase ends once the frontier reaches [target],
     or after [cap] nodes: on instances whose tree stays narrow near the
     root the frontier may never reach [target], and without the cap
     the "parallel" search would run entirely inside this loop. *)
  let target, cap =
    if jobs = 1 then (max_int, max_int) else (4 * jobs, 8 * jobs)
  in
  while
    (not (stopped env))
    && Metrics.count ctx.msh C_nodes < cap
    &&
    let l = Pool.Deque.length dq in
    l > 0 && l < target
  do
    match Pool.Deque.pop dq with
    | None -> assert false
    | Some node ->
      (* Dual-bound convergence sample: after the pop, the global lower
         bound is the min over the remaining frontier and this node.
         The fold walks the frontier, so sample on a cadence. *)
      if Atomic.get env.nodes land 31 = 0 then
        note_bound inc env (Pool.Deque.fold min_bound node.n_bound dq);
      ignore (run_node ctx node)
  done;
  if Trace.active tw then Trace.emit tw (Trace.Span_end span);
  seeding := false;
  let open_bound, workers =
    if stopped env || Pool.Deque.is_empty dq then
      (* the search ended (or hit a limit) in the seeding phase, as it
         always does at [jobs = 1] *)
      ( Pool.Deque.fold min_bound Float.infinity dq,
        if jobs = 1 then [||] else Array.make jobs None )
    else run_workers env inc (Pool.Deque.to_list dq)
  in
  let outcome =
    match Atomic.get env.stop with
    | Step_ok -> (
      match inc.best with
      | Some (obj, x) -> Optimal { obj; x }
      | None -> Infeasible)
    | Step_unbounded -> Unbounded
    | Step_limit | Step_numeric ->
      Limit_reached { best = inc.best; bound = finitize open_bound }
  in
  (outcome, finish env inc outcome ~driver:ctx ~workers)
