let src = Logs.Src.create "ilp.heur" ~doc:"Primal heuristics"

module Log = (val Logs.src_log src : Logs.LOG)

type t = {
  lp : Lp.t;
  n : int;
  ivars : int list;
  is_int : bool array;
  obj : float array;  (* minimization-oriented *)
  root_lb : float array;
  root_ub : float array;
  trace : Trace.writer;
  (* Heuristic activity is counted through the dedicated C_heur_*
     counters only; the private engine below gets no metrics shard, so
     its pivots never pollute the search-wide LP totals (which must
     match Branch_bound.stats exactly). *)
  metrics : Metrics.shard;
  mutable eng : Simplex.state option;
  mutable eng_fresh : bool;  (* no usable basis on the engine yet *)
}

let create ?(trace = Trace.null_writer) ?(metrics = Metrics.null_shard) lp =
  let n = Lp.num_vars lp in
  let ivars =
    List.map (fun (v : Lp.var) -> (v :> int)) (Lp.integer_vars lp)
  in
  let is_int = Array.make n false in
  List.iter (fun j -> is_int.(j) <- true) ivars;
  {
    lp;
    n;
    ivars;
    is_int;
    obj = Lp.objective lp;
    root_lb = Array.init n (fun j -> Lp.var_lb lp (Lp.var_of_int lp j));
    root_ub = Array.init n (fun j -> Lp.var_ub lp (Lp.var_of_int lp j));
    trace;
    metrics;
    eng = None;
    eng_fresh = true;
  }

(* The private engine, built on first use so enabling heuristics costs
   nothing until a dive actually runs. Owned by the domain that first
   dives — one Heuristics.t per search context, like the search engine
   itself. *)
let engine t =
  match t.eng with
  | Some st -> st
  | None ->
    let st = Simplex.create t.lp in
    Simplex.set_trace st t.trace;
    t.eng <- Some st;
    st

let frac v = Float.abs (v -. Float.round v)

(* One repair step: pick the flip of a 0-1 variable in the violated row
   that moves its activity toward feasibility at the least objective
   damage per unit of violation removed. Returns false when no integer
   variable in the row can move in a helpful direction. *)
let repair_row t rx ~row ~activity ~sense ~rhs =
  let need_down = (sense = Lp.Le || sense = Lp.Eq) && activity > rhs in
  let need_up = (sense = Lp.Ge || sense = Lp.Eq) && activity < rhs in
  let terms, _, _ = Lp.row t.lp row in
  let best = ref None in
  List.iter
    (fun ((c, v) : float * Lp.var) ->
      let j = (v :> int) in
      if t.is_int.(j) && c <> 0. then begin
        let consider d =
          let nv = rx.(j) +. d in
          if nv >= t.root_lb.(j) -. 1e-9 && nv <= t.root_ub.(j) +. 1e-9
          then begin
            let da = c *. d in
            if (need_down && da < 0.) || (need_up && da > 0.) then begin
              let score = (t.obj.(j) *. d) /. Float.abs da in
              match !best with
              | Some (s, _, _) when s <= score -> ()
              | _ -> best := Some (score, j, d)
            end
          end
        in
        consider 1.;
        consider (-1.)
      end)
    terms;
  match !best with
  | None -> false
  | Some (_, j, d) ->
    rx.(j) <- rx.(j) +. d;
    true

let round_and_repair t ?(int_tol = 1e-6) ?max_flips ~x () =
  ignore int_tol;
  if Metrics.active t.metrics then Metrics.incr t.metrics Metrics.C_heur_runs;
  let max_flips =
    match max_flips with
    | Some m -> m
    | None -> (2 * Lp.num_constrs t.lp) + 16
  in
  let rx = Array.copy x in
  List.iter
    (fun j ->
      let v = Float.round rx.(j) in
      rx.(j) <- Float.min t.root_ub.(j) (Float.max t.root_lb.(j) v))
    t.ivars;
  let flips = ref 0 in
  let verdict = ref None in
  while !verdict = None do
    match Feas_check.check t.lp rx with
    | [] -> verdict := Some true
    | viols -> (
      if !flips >= max_flips then verdict := Some false
      else
        (* Bound and integrality violations cannot appear here (the
           rounding above clamps into the root box), so any non-row
           residue means the point is unrepairable. *)
        match
          List.find_map
            (function
              | Feas_check.Row { row; activity; sense; rhs } ->
                Some (row, activity, sense, rhs)
              | Feas_check.Bound _ | Feas_check.Integrality _ -> None)
            viols
        with
        | None -> verdict := Some false
        | Some (row, activity, sense, rhs) ->
          incr flips;
          if not (repair_row t rx ~row ~activity ~sense ~rhs) then
            verdict := Some false)
  done;
  if !verdict = Some true then begin
    Log.debug (fun f -> f "round+repair found a feasible point (%d flips)" !flips);
    if Metrics.active t.metrics then
      Metrics.incr t.metrics Metrics.C_heur_incumbents;
    Some rx
  end
  else None

let dive t ~lb ~ub ~x ?(int_tol = 1e-6) ~max_depth ~cutoff ~deadline () =
  if t.ivars = [] then None
  else begin
    if Metrics.active t.metrics then
      Metrics.incr t.metrics Metrics.C_heur_runs;
    let st = engine t in
    for j = 0 to t.n - 1 do
      Simplex.set_var_bounds st j ~lb:lb.(j) ~ub:ub.(j)
    done;
    let most_frac y =
      let bj = ref (-1) and bf = ref int_tol in
      List.iter
        (fun j ->
          let f = frac y.(j) in
          if f > !bf then begin
            bj := j;
            bf := f
          end)
        t.ivars;
      !bj
    in
    let solve () =
      (* The first solve has no basis to warm from; afterwards the dual
         simplex absorbs both the per-level fixing and the full bound
         reset at the next dive's entry. *)
      if t.eng_fresh then begin
        t.eng_fresh <- false;
        Simplex.primal st
      end
      else Simplex.dual_reopt st
    in
    let try_fix j v =
      Simplex.set_var_bounds st j ~lb:v ~ub:v;
      let res = solve () in
      match res.Simplex.status with
      | Simplex.Optimal when res.Simplex.obj < cutoff -> Some res
      | _ -> None
    in
    let rec go y depth =
      if Mono.now () > deadline then None
      else
        let j = most_frac y in
        if j < 0 then begin
          if Metrics.active t.metrics then
            Metrics.incr t.metrics Metrics.C_heur_incumbents;
          Some (Array.copy y)
        end
        else if depth >= max_depth then None
        else begin
          let v = Float.round y.(j) in
          let v = Float.min ub.(j) (Float.max lb.(j) v) in
          match try_fix j v with
          | Some res -> go res.Simplex.x (depth + 1)
          | None ->
            (* One-level backtrack: rounding to the nearest bound made
               the LP infeasible (or cutoff-dominated) — on precedence-
               heavy 0-1 models this happens within a few levels, so
               abandoning the dive here would make it useless exactly
               where an incumbent matters most. Try the opposite bound
               before giving up; costs at most one extra
               reoptimization per level. *)
            let w = lb.(j) +. ub.(j) -. v in
            if Mono.now () > deadline || w = v then None
            else begin
              match try_fix j w with
              | Some res -> go res.Simplex.x (depth + 1)
              | None -> None
            end
        end
    in
    go x 0
  end
