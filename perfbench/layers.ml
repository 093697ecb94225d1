(* Per-layer metrics of one traced pass, read from outside the solver:
   wall time and [Gc.quick_stat] deltas around each public call the
   benchmark makes, the counters [Branch_bound.stats] and [Simplex.stats]
   already return, and the events the [Ilp.Trace] recorder already
   emits. Nothing here adds a span inside the libraries. *)

module Trace = Ilp.Trace

(* Every per-layer metric with its unit, in reporting order (the order
   of BENCHMARK.json). A layer a workload never reaches reports 0. *)
let catalog =
  [
    ("estimate.s", "s");
    ("estimate.minor_words", "words");
    ("formulate.s", "s");
    ("formulate.vars", "count");
    ("formulate.constrs", "count");
    ("formulate.minor_words", "words");
    ("presolve.s", "s");
    ("presolve.rows_out", "count");
    ("presolve.minor_words", "words");
    ("root_lp.s", "s");
    ("root_lp.pivots", "count");
    ("root_lp.factorizations", "count");
    ("root_lp.factor_s", "s");
    ("node_lp.s", "s");
    ("node_lp.count", "count");
    ("node_lp.pivots", "count");
    ("node_lp.flips", "count");
    ("node_lp.pivots_p50", "count");
    ("node_lp.pivots_p90", "count");
    ("node_lp.pivots_max", "count");
    ("node_lp.s_p90", "s");
    ("node_lp.s_max", "s");
    ("node_lp.capped", "count");
    ("lu.factor_s", "s");
    ("lu.factorizations", "count");
    ("lu.refactor_eta", "count");
    ("ftran.s", "s");
    ("btran.s", "s");
    ("pricing_ratio.s", "s");
    ("search.s", "s");
    ("search.nodes", "count");
    ("search.max_depth", "count");
    ("search.non_lp_s", "s");
    ("hook.prunes", "count");
    ("hook.incumbents", "count");
    ("search.minor_words", "words");
    ("search.major_words", "words");
    ("certify.s", "s");
    ("certify.checks", "count");
    ("oracle.s", "s");
    ("trace.overhead_pct", "%");
    ("wrong_verdicts", "count");
    ("unfinished", "count");
    ("counts.drift", "count");
  ]

type t = {
  values : (string, float) Hashtbl.t;
  mutable node_pivots : float list;  (* one entry per node LP *)
  mutable node_dts : float list;
  mutable lp_s : float;  (* every LP solve, root and nodes *)
}

let create () =
  { values = Hashtbl.create 64; node_pivots = []; node_dts = []; lp_s = 0. }

let get t name = Option.value (Hashtbl.find_opt t.values name) ~default:0.

let set t name v =
  if not (List.mem_assoc name catalog) then invalid_arg ("Layers.set " ^ name);
  Hashtbl.replace t.values name v

let add t name v = set t name (get t name +. v)

(* Capped dual reopts: [Simplex.dual_reopt_core] gives the dual loop
   [1000 + 30 m] pivots, then restarts cold; the fallback is folded into
   the enclosing [Lp_solve] event, so a capped solve reports at least
   that many pivots. The count is a proxy, not exact: the loop's count
   includes numeric-refactor retries and a dual that stops under the cap
   can pass it with the primal clean-up folded into the same event. *)
let dual_cap m = 1000 + (30 * m)

(* Walks one cell's trace: phase spans, the root node's window (its LP
   and the factorizations behind it), every later LP as a node LP, hook
   outcomes and certification checks. Returns the cell's node-LP count,
   which the caller checks against the search's node count. *)
let add_trace t (records : Trace.record array) =
  let opened = Hashtbl.create 8 in
  let root = ref None and in_root = ref false and root_lp_done = ref false in
  let m = ref 0 and node_lps = ref 0 in
  Array.iter
    (fun (r : Trace.record) ->
      match r.ev with
      | Trace.Span_begin name -> Hashtbl.replace opened name r.ts
      | Trace.Span_end (("presolve" | "search") as name) ->
        Option.iter
          (fun t0 -> add t (name ^ ".s") (r.ts -. t0))
          (Hashtbl.find_opt opened name)
      | Trace.Node_open { id; _ } ->
        if !root = None then begin
          root := Some id;
          in_root := true
        end
      | Trace.Node_close { id; reason; _ } ->
        if !root = Some id then in_root := false;
        if reason = Trace.Hook_pruned then add t "hook.prunes" 1.
      | Trace.Lu_factor { m = dim; dt; _ } ->
        m := dim;
        if !in_root && not !root_lp_done then begin
          add t "root_lp.factorizations" 1.;
          add t "root_lp.factor_s" dt
        end
      | Trace.Lp_solve { kind; pivots; flips; dt; _ } ->
        t.lp_s <- t.lp_s +. dt;
        if !in_root && not !root_lp_done then begin
          root_lp_done := true;
          add t "root_lp.s" dt;
          add t "root_lp.pivots" (float pivots)
        end
        else begin
          incr node_lps;
          add t "node_lp.s" dt;
          add t "node_lp.count" 1.;
          add t "node_lp.pivots" (float pivots);
          add t "node_lp.flips" (float flips);
          if kind = Trace.Lp_dual && pivots >= dual_cap !m then
            add t "node_lp.capped" 1.;
          t.node_pivots <- float pivots :: t.node_pivots;
          t.node_dts <- dt :: t.node_dts
        end
      | Trace.Incumbent { source = Trace.Src_hook; _ } ->
        add t "hook.incumbents" 1.
      | Trace.Cert_check { dt; _ } ->
        add t "certify.s" dt;
        add t "certify.checks" 1.
      | _ -> ())
    records;
  !node_lps

(* The LP kernel's own split, from the counters the search returns. *)
let add_stats t (s : Ilp.Branch_bound.stats) =
  let lp = s.Ilp.Branch_bound.lp_stats in
  add t "lu.factor_s" lp.Ilp.Simplex.factor_time_s;
  add t "lu.factorizations" (float lp.Ilp.Simplex.factorizations);
  add t "lu.refactor_eta" (float lp.Ilp.Simplex.refactor_eta);
  add t "ftran.s" lp.Ilp.Simplex.ftran_seconds;
  add t "btran.s" lp.Ilp.Simplex.btran_seconds;
  add t "search.nodes" (float s.Ilp.Branch_bound.nodes);
  set t "search.max_depth"
    (Float.max (get t "search.max_depth") (float s.Ilp.Branch_bound.max_depth))

(* Nearest-rank quantile; 0 for an empty sample. *)
let quantile q = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    a.(Int.max 0 (Int.min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1)))

let metrics t =
  set t "node_lp.pivots_p50" (quantile 0.5 t.node_pivots);
  set t "node_lp.pivots_p90" (quantile 0.9 t.node_pivots);
  set t "node_lp.pivots_max" (quantile 1. t.node_pivots);
  set t "node_lp.s_p90" (quantile 0.9 t.node_dts);
  set t "node_lp.s_max" (quantile 1. t.node_dts);
  set t "pricing_ratio.s"
    (t.lp_s -. get t "lu.factor_s" -. get t "ftran.s" -. get t "btran.s");
  set t "search.non_lp_s" (get t "search.s" -. t.lp_s);
  List.map (fun (name, unit) -> (name, get t name, unit)) catalog
