type stats = {
  rows_removed : int;
  bounds_tightened : int;
  vars_fixed : int;
  passes : int;
  row_map : int array;
}

type result = Infeasible of string | Reduced of Lp.t * stats

let pp_stats ppf s =
  Format.fprintf ppf "%d rows removed, %d bounds tightened, %d vars fixed (%d passes)"
    s.rows_removed s.bounds_tightened s.vars_fixed s.passes

let tol = 1e-9

let max_passes = 10

exception Infeasible_row of string

let presolve lp =
  let n = Lp.num_vars lp in
  let prop = Propagate.of_lp lp in
  let lb = Array.init n (fun j -> Lp.var_lb lp (Lp.var_of_int lp j)) in
  let ub = Array.init n (fun j -> Lp.var_ub lp (Lp.var_of_int lp j)) in
  let removed = Array.make (Lp.num_constrs lp) false in
  let rows_removed = ref 0 in
  let bounds_tightened = ref 0 in
  let passes = ref 0 in
  (* One presolve pass: per live row, infeasibility and redundancy by
     activity bounds, then the shared deduction step of {!Propagate}.
     Removed rows stop propagating, exactly as before the kernel was
     factored out. *)
  let process_row i =
    let lo, hi = Propagate.activity prop i ~lb ~ub in
    let rhs = Propagate.rhs prop i in
    let infeasible () = raise (Infeasible_row (Lp.row_name lp i)) in
    (match Propagate.sense prop i with
     | Lp.Le ->
       if lo > rhs +. 1e-7 then infeasible ();
       if hi <= rhs +. tol then begin
         removed.(i) <- true;
         incr rows_removed
       end
     | Lp.Ge ->
       if hi < rhs -. 1e-7 then infeasible ();
       if lo >= rhs -. tol then begin
         removed.(i) <- true;
         incr rows_removed
       end
     | Lp.Eq -> if lo > rhs +. 1e-7 || hi < rhs -. 1e-7 then infeasible ());
    if not removed.(i) then begin
      let changed = ref false in
      Propagate.step prop i ~lb ~ub ~on_change:(fun _ ->
          changed := true;
          incr bounds_tightened);
      !changed
    end
    else false
  in
  try
    let continue = ref true in
    while !continue && !passes < max_passes do
      incr passes;
      continue := false;
      for i = 0 to Lp.num_constrs lp - 1 do
        if not removed.(i) then if process_row i then continue := true
      done
    done;
    (* A variable keeps the model's bounds unless presolve tightened one
       of them by more than [tol]. *)
    for j = 0 to n - 1 do
      let v = Lp.var_of_int lp j in
      let lb0 = Lp.var_lb lp v and ub0 = Lp.var_ub lp v in
      if not (lb.(j) > lb0 +. tol || ub.(j) < ub0 -. tol) then begin
        lb.(j) <- lb0;
        ub.(j) <- ub0
      end
    done;
    (* The kept rows, shared with [lp]: presolve never edits a
       coefficient. *)
    let row_map =
      let kept = Array.make (Lp.num_constrs lp - !rows_removed) 0
      and k = ref 0 in
      Array.iteri
        (fun i r ->
          if not r then begin
            kept.(!k) <- i;
            incr k
          end)
        removed;
      kept
    in
    let out = Lp.restrict lp ~rows:row_map ~lb ~ub in
    let vars_fixed =
      let n = ref 0 in
      for j = 0 to Lp.num_vars out - 1 do
        let v = Lp.var_of_int out j in
        if
          Float.is_finite (Lp.var_lb out v)
          && Lp.var_ub out v -. Lp.var_lb out v <= tol
        then incr n
      done;
      !n
    in
    Reduced
      ( out,
        {
          rows_removed = !rows_removed;
          bounds_tightened = !bounds_tightened;
          vars_fixed;
          passes = !passes;
          row_map;
        } )
  with
  | Infeasible_row name -> Infeasible name
  | Propagate.Conflict_row name -> Infeasible name
  | Propagate.Empty j ->
    let v = Lp.var_of_int lp j in
    Infeasible
      (Printf.sprintf "variable %s: empty domain" (Lp.var_name lp v))
