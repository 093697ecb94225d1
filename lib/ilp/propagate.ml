(* Activity-based bound propagation over a fixed row set.

   This is the deduction kernel shared by {!Presolve} (root, to a
   fixpoint over every row) and {!Branch_bound} (per node, incrementally
   over only the rows touched by a branching bound change). The row set
   and the row->variable adjacency are built once and never mutated, so
   a single [t] is safely shared read-only across worker domains; all
   mutable state ([lb]/[ub] arrays, the worklist) belongs to the
   caller. *)

let tol = 1e-9
let ftol = 1e-7

type row = {
  idx : int array;
  coef : float array;
  sense : Lp.sense;
  rhs : float;
  name : string;
}

type t = {
  rows : row array;
  var_rows : int array array;
  is_int : bool array;
  nvars : int;
}

let make_row ~name terms sense rhs =
  let terms = List.filter (fun (c, _) -> Float.abs c > tol) terms in
  let n = List.length terms in
  let idx = Array.make n 0 and coef = Array.make n 0. in
  List.iteri
    (fun k (c, j) ->
      idx.(k) <- j;
      coef.(k) <- c)
    terms;
  { idx; coef; sense; rhs; name }

let of_lp lp =
  let nvars = Lp.num_vars lp in
  let rows = ref [] in
  Lp.iter_rows lp (fun i terms sense rhs ->
      rows :=
        make_row ~name:(Lp.row_name lp i)
          (List.map (fun (c, v) -> (c, (v : Lp.var :> int))) terms)
          sense rhs
        :: !rows);
  let rows = Array.of_list (List.rev !rows) in
  let counts = Array.make nvars 0 in
  Array.iter
    (fun r -> Array.iter (fun j -> counts.(j) <- counts.(j) + 1) r.idx)
    rows;
  let var_rows = Array.map (fun c -> Array.make c 0) counts in
  let fill = Array.make nvars 0 in
  Array.iteri
    (fun ri r ->
      Array.iter
        (fun j ->
          var_rows.(j).(fill.(j)) <- ri;
          fill.(j) <- fill.(j) + 1)
        r.idx)
    rows;
  let is_int =
    Array.init nvars (fun j -> Lp.is_integer_var lp (Lp.var_of_int lp j))
  in
  { rows; var_rows; is_int; nvars }

let num_rows t = Array.length t.rows
let row t i = t.rows.(i)

(* Minimum and maximum activity of [row] under the given bounds. *)
let activity row ~lb ~ub =
  let lo = ref 0. and hi = ref 0. in
  Array.iteri
    (fun k j ->
      let c = row.coef.(k) in
      if c >= 0. then begin
        lo := !lo +. (c *. lb.(j));
        hi := !hi +. (c *. ub.(j))
      end
      else begin
        lo := !lo +. (c *. ub.(j));
        hi := !hi +. (c *. lb.(j))
      end)
    row.idx;
  (!lo, !hi)

exception Empty of int
exception Conflict_row of string

(* Tighten variable [j] towards [new_lb]/[new_ub] (either may be
   infinite = no-op on that side), rounding inward for integers.
   Returns whether a bound actually moved. Raises [Empty j] when the
   domain closes. *)
let tighten is_int j ~lb ~ub ~new_lb ~new_ub =
  let new_lb, new_ub =
    if is_int.(j) then
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
  let row = t.rows.(ri) in
  let lo, hi = activity row ~lb ~ub in
  (match row.sense with
   | Lp.Le -> if lo > row.rhs +. ftol then raise (Conflict_row row.name)
   | Lp.Ge -> if hi < row.rhs -. ftol then raise (Conflict_row row.name)
   | Lp.Eq ->
     if lo > row.rhs +. ftol || hi < row.rhs -. ftol then
       raise (Conflict_row row.name));
  let upper = row.sense = Lp.Le || row.sense = Lp.Eq in
  let lower = row.sense = Lp.Ge || row.sense = Lp.Eq in
  Array.iteri
    (fun k j ->
      let c = row.coef.(k) in
      (if upper then
         let lo_rest = lo -. (if c >= 0. then c *. lb.(j) else c *. ub.(j)) in
         if Float.is_finite lo_rest then begin
           let limit = (row.rhs -. lo_rest) /. c in
           let moved =
             if c > 0. then
               tighten t.is_int j ~lb ~ub ~new_lb:Float.neg_infinity
                 ~new_ub:limit
             else
               tighten t.is_int j ~lb ~ub ~new_lb:limit ~new_ub:Float.infinity
           in
           if moved then on_change j
         end);
      if lower then begin
        let hi_rest = hi -. (if c >= 0. then c *. ub.(j) else c *. lb.(j)) in
        if Float.is_finite hi_rest then begin
          let limit = (row.rhs -. hi_rest) /. c in
          let moved =
            if c > 0. then
              tighten t.is_int j ~lb ~ub ~new_lb:limit ~new_ub:Float.infinity
            else
              tighten t.is_int j ~lb ~ub ~new_lb:Float.neg_infinity
                ~new_ub:limit
          in
          if moved then on_change j
        end
      end)
    row.idx

type deductions = {
  fixes : (int * float * float) list;
  steps : int;
}

type outcome =
  | Ok of deductions
  | Empty_domain of int
  | Conflict of string

let run t ~lb ~ub ?seeds ?max_steps ?(trace = Trace.null_writer) ?metrics
    () =
  let nrows = Array.length t.rows in
  let max_steps =
    match max_steps with Some s -> s | None -> Int.max 256 (64 * nrows)
  in
  let queue = Queue.create () in
  let in_queue = Array.make nrows false in
  let enqueue ri =
    if not in_queue.(ri) then begin
      in_queue.(ri) <- true;
      Queue.push ri queue
    end
  in
  (match seeds with
   | None -> for ri = 0 to nrows - 1 do enqueue ri done
   | Some vs -> List.iter (fun j -> Array.iter enqueue t.var_rows.(j)) vs);
  let changed = Array.make t.nvars false in
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
          Array.iter enqueue t.var_rows.(j))
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
