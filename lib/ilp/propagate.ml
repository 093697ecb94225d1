(* Activity-based bound propagation over a fixed row set.

   This is the deduction kernel shared by {!Presolve} (root, to a
   fixpoint over every row) and {!Branch_bound} (per node, incrementally
   over only the rows touched by a branching bound change). The rows and
   the variable->rows pattern are packed once into flat arrays and never
   mutated, so a single [t] is safely shared read-only across worker
   domains; all mutable state ([lb]/[ub] arrays, the worklist) belongs
   to the caller. *)

let tol = 1e-9
let ftol = 1e-7

(* Row [i]'s terms are [col]/[coef] over [row_start.(i) ..
   row_start.(i+1) - 1], in the model's term order (near-zero
   coefficients dropped, duplicates kept); variable [j]'s rows are
   [var_row] over [var_start.(j) .. var_start.(j+1) - 1], ascending,
   once per term. Row names and integrality are read from [lp]. *)
type t = {
  lp : Lp.t;
  row_start : int array;
  col : int array;
  coef : float array;
  sense : Lp.sense array;
  rhs : float array;
  var_start : int array;
  var_row : int array;
}

let of_lp lp =
  let nvars = Lp.num_vars lp and nrows = Lp.num_constrs lp in
  let kept (c, _) = Float.abs c > tol in
  let row_start = Array.make (nrows + 1) 0 in
  let var_start = Array.make (nvars + 1) 0 in
  Lp.iter_rows lp (fun i terms _ _ ->
      let n = ref 0 in
      List.iter
        (fun ((_, (v : Lp.var)) as term) ->
          if kept term then begin
            incr n;
            let j = (v :> int) in
            var_start.(j + 1) <- var_start.(j + 1) + 1
          end)
        terms;
      row_start.(i + 1) <- row_start.(i) + !n);
  for j = 1 to nvars do
    var_start.(j) <- var_start.(j) + var_start.(j - 1)
  done;
  let nnz = row_start.(nrows) in
  let col = Array.make nnz 0 and coef = Array.make nnz 0. in
  let sense = Array.make nrows Lp.Le and rhs = Array.make nrows 0. in
  let var_row = Array.make nnz 0 in
  let fill = Array.sub var_start 0 nvars in
  Lp.iter_rows lp (fun i terms s b ->
      sense.(i) <- s;
      rhs.(i) <- b;
      let k = ref row_start.(i) in
      List.iter
        (fun ((c, (v : Lp.var)) as term) ->
          if kept term then begin
            let j = (v :> int) in
            col.(!k) <- j;
            coef.(!k) <- c;
            incr k;
            var_row.(fill.(j)) <- i;
            fill.(j) <- fill.(j) + 1
          end)
        terms);
  { lp; row_start; col; coef; sense; rhs; var_start; var_row }

let num_rows t = Array.length t.rhs
let sense t i = t.sense.(i)
let rhs t i = t.rhs.(i)

(* Minimum and maximum activity of row [i] under the given bounds. *)
let activity t i ~lb ~ub =
  (* a loop, not a closure, so the sums stay unboxed *)
  let lo = ref 0. and hi = ref 0. in
  for k = t.row_start.(i) to t.row_start.(i + 1) - 1 do
    let j = t.col.(k) and c = t.coef.(k) in
    if c >= 0. then begin
      lo := !lo +. (c *. lb.(j));
      hi := !hi +. (c *. ub.(j))
    end
    else begin
      lo := !lo +. (c *. ub.(j));
      hi := !hi +. (c *. lb.(j))
    end
  done;
  (!lo, !hi)

exception Empty of int
exception Conflict_row of string

(* Tighten variable [j] towards [new_lb]/[new_ub] (either may be
   infinite = no-op on that side), rounding inward for integers.
   Returns whether a bound actually moved. Raises [Empty j] when the
   domain closes. *)
let tighten t j ~lb ~ub ~new_lb ~new_ub =
  let new_lb, new_ub =
    if Lp.is_integer_var t.lp (Lp.var_of_int t.lp j) then
      ( (if Float.is_finite new_lb then Float.ceil (new_lb -. 1e-6) else new_lb),
        if Float.is_finite new_ub then Float.floor (new_ub +. 1e-6) else new_ub
      )
    else (new_lb, new_ub)
  in
  let nlb = Float.max lb.(j) new_lb and nub = Float.min ub.(j) new_ub in
  if nlb > nub +. tol then raise (Empty j);
  let moved = nlb > lb.(j) +. tol || nub < ub.(j) -. tol in
  if moved then begin
    lb.(j) <- nlb;
    ub.(j) <- Float.max nlb nub
  end;
  moved

(* One deduction step on one row: conflict check, then residual-activity
   bound tightening on every term. The activity range is computed once
   at entry — residuals go stale as bounds move within the row, which is
   sound (bounds only shrink, so a stale minimum activity underestimates
   and the implied limits stay valid) and matches the historical
   presolve pass exactly. *)
let step t ri ~lb ~ub ~on_change =
  let lo, hi = activity t ri ~lb ~ub in
  let rhs = t.rhs.(ri) and sense = t.sense.(ri) in
  let conflict () = raise (Conflict_row (Lp.row_name t.lp ri)) in
  (match sense with
   | Lp.Le -> if lo > rhs +. ftol then conflict ()
   | Lp.Ge -> if hi < rhs -. ftol then conflict ()
   | Lp.Eq -> if lo > rhs +. ftol || hi < rhs -. ftol then conflict ());
  let upper = sense = Lp.Le || sense = Lp.Eq in
  let lower = sense = Lp.Ge || sense = Lp.Eq in
  for k = t.row_start.(ri) to t.row_start.(ri + 1) - 1 do
    let j = t.col.(k) and c = t.coef.(k) in
    (if upper then
       let lo_rest = lo -. (if c >= 0. then c *. lb.(j) else c *. ub.(j)) in
       if Float.is_finite lo_rest then begin
         let limit = (rhs -. lo_rest) /. c in
         let moved =
           if c > 0. then
             tighten t j ~lb ~ub ~new_lb:Float.neg_infinity ~new_ub:limit
           else tighten t j ~lb ~ub ~new_lb:limit ~new_ub:Float.infinity
         in
         if moved then on_change j
       end);
    if lower then begin
      let hi_rest = hi -. (if c >= 0. then c *. ub.(j) else c *. lb.(j)) in
      if Float.is_finite hi_rest then begin
        let limit = (rhs -. hi_rest) /. c in
        let moved =
          if c > 0. then
            tighten t j ~lb ~ub ~new_lb:limit ~new_ub:Float.infinity
          else tighten t j ~lb ~ub ~new_lb:Float.neg_infinity ~new_ub:limit
        in
        if moved then on_change j
      end
    end
  done

type deductions = {
  fixes : (int * float * float) list;
  steps : int;
}

type outcome =
  | Ok of deductions
  | Empty_domain of int
  | Conflict of string

let run t ~lb ~ub ?seeds ?metrics () =
  let trace =
    match metrics with Some sh -> Metrics.writer sh | None -> Trace.null_writer
  in
  let nrows = num_rows t in
  let max_steps = Int.max 256 (64 * nrows) in
  let queue = Queue.create () in
  let in_queue = Array.make nrows false in
  let enqueue ri =
    if not in_queue.(ri) then begin
      in_queue.(ri) <- true;
      Queue.push ri queue
    end
  in
  let enqueue_rows j =
    for k = t.var_start.(j) to t.var_start.(j + 1) - 1 do
      enqueue t.var_row.(k)
    done
  in
  (match seeds with
   | None -> for ri = 0 to nrows - 1 do enqueue ri done
   | Some vs -> List.iter enqueue_rows vs);
  let changed = Array.make (Array.length t.var_start - 1) false in
  let order = ref [] in
  let steps = ref 0 in
  try
    while (not (Queue.is_empty queue)) && !steps < max_steps do
      let ri = Queue.pop queue in
      in_queue.(ri) <- false;
      incr steps;
      step t ri ~lb ~ub ~on_change:(fun j ->
          if not changed.(j) then begin
            changed.(j) <- true;
            order := j :: !order
          end;
          enqueue_rows j)
    done;
    let fixes = List.rev_map (fun j -> (j, lb.(j), ub.(j))) !order in
    (match metrics with
     | Some sh ->
       Metrics.incr sh Metrics.C_prop_runs;
       Metrics.add sh Metrics.C_prop_fixings (List.length fixes)
     | None -> ());
    if Trace.active trace then
      Trace.emit trace
        (Trace.Prop_run
           { steps = !steps; fixings = List.length fixes; conflict = false });
    Ok { fixes; steps = !steps }
  with
  | (Empty _ | Conflict_row _) as e ->
    (match metrics with
     | Some sh -> Metrics.incr sh Metrics.C_prop_runs
     | None -> ());
    if Trace.active trace then
      Trace.emit trace
        (Trace.Prop_run { steps = !steps; fixings = 0; conflict = true });
    (match e with
     | Empty j -> Empty_domain j
     | Conflict_row name -> Conflict name
     | _ -> assert false)
