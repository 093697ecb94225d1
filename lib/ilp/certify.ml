(* Exact a-posteriori certification. See certify.mli for semantics.

   Everything here is arithmetic over Rat on data converted exactly
   from the snapshot's doubles, so the verdicts below are statements
   about the actual model the float solver worked on, not about a
   rounded copy of it. *)

type verdict = Certified | Refuted | Uncertifiable

type detail =
  | Exact_optimum of { obj : Rat.t }
  | Optimal_within of { obj : Rat.t; dual_bound : Rat.t; gap : float }
  | Farkas_proof of { gap : Rat.t; witness_row : int; support : int list }
  | Bound_violation of { column : int; violation : float }
  | Objective_mismatch of { exact : Rat.t; reported : float }
  | Dual_gap of { gap : float }
  | Invalid_ray of { shortfall : float }
  | Singular_basis
  | No_certificate of string

type t = {
  verdict : verdict;
  detail : detail;
}

let certified d = { verdict = Certified; detail = d }
let refuted d = { verdict = Refuted; detail = d }
let uncertifiable d = { verdict = Uncertifiable; detail = d }

(* ------------------------------------------------------------------ *)
(* Rational sparse LU of the basis nucleus, with a Markowitz-style
   greedy pivot choice at every step. *)

exception Singular

type rlu = {
  r_m : int;
  r_prow : int array;  (* step -> pivot row *)
  r_pslot : int array;  (* step -> pivot slot (basis position) *)
  r_diag : Rat.t array;  (* step -> pivot value *)
  r_l : (int * Rat.t) array array;  (* step -> below-pivot multipliers, by row *)
  r_u : (int * Rat.t) array array;  (* step -> pivot-row entries, by slot *)
}

let rlu_factor ~m ~(col : int -> (int * Rat.t) list) =
  let cols = Array.init m (fun _ -> Hashtbl.create 8) in
  let row_slots = Array.init m (fun _ -> Hashtbl.create 8) in
  let slot_active = Array.make m true in
  (* Lazy bucket queues: [by_count.(c)] holds the columns that had [c]
     active entries when last changed, [row_single] the rows that had
     one. [pick] re-checks whatever it pops; eliminated rows and
     columns are emptied or inactive, so a stale entry never passes. *)
  let by_count = Array.make (m + 1) [] and row_single = ref [] in
  let note_col q =
    let c = Hashtbl.length cols.(q) in
    by_count.(c) <- q :: by_count.(c)
  in
  let note_row r =
    if Hashtbl.length row_slots.(r) = 1 then row_single := r :: !row_single
  in
  let set_entry q r v =
    if Rat.is_zero v then begin
      Hashtbl.remove cols.(q) r;
      Hashtbl.remove row_slots.(r) q
    end
    else begin
      Hashtbl.replace cols.(q) r v;
      Hashtbl.replace row_slots.(r) q ()
    end;
    note_col q;
    note_row r
  in
  for q = 0 to m - 1 do
    List.iter (fun (r, v) -> set_entry q r v) (col q);
    note_col q
  done;
  let prow = Array.make m 0 and pslot = Array.make m 0 in
  let diag = Array.make m Rat.zero in
  let lent = Array.make m [||] and uent = Array.make m [||] in
  let rec row_singleton () =
    match !row_single with
    | [] -> None
    | r :: rest ->
        row_single := rest;
        if Hashtbl.length row_slots.(r) = 1 then Some r else row_singleton ()
  in
  let rec shortest c =
    match by_count.(c) with
    | [] -> shortest (c + 1)
    | q :: rest ->
        by_count.(c) <- rest;
        if slot_active.(q) && Hashtbl.length cols.(q) = c then (q, c)
        else shortest c
  in
  (* Markowitz choice: a row singleton (no fill), else the row of
     fewest entries within a shortest column (a column singleton makes
     no fill either). An active column with no entry left makes B
     singular. *)
  let pick () =
    match row_singleton () with
    | Some r -> (r, Hashtbl.fold (fun q () _ -> q) row_slots.(r) (-1))
    | None ->
        let q, c = shortest 0 in
        if c = 0 then raise Singular;
        let best = ref (-1) and best_len = ref max_int in
        Hashtbl.iter
          (fun r _ ->
            let len = Hashtbl.length row_slots.(r) in
            if len < !best_len then begin
              best_len := len;
              best := r
            end)
          cols.(q);
        (!best, q)
  in
  for k = 0 to m - 1 do
    let p, q = pick () in
    let piv = Hashtbl.find cols.(q) p in
    let ls =
      Hashtbl.fold
        (fun r v acc -> if r = p then acc else (r, Rat.div v piv) :: acc)
        cols.(q) []
    in
    let us =
      Hashtbl.fold
        (fun c () acc ->
          if c = q then acc
          else
            match Hashtbl.find_opt cols.(c) p with
            | Some v -> (c, v) :: acc
            | None -> acc)
        row_slots.(p) []
    in
    prow.(k) <- p;
    pslot.(k) <- q;
    diag.(k) <- piv;
    lent.(k) <- Array.of_list ls;
    uent.(k) <- Array.of_list us;
    (* detach the pivot row and column from the active matrix *)
    slot_active.(q) <- false;
    Hashtbl.reset row_slots.(p);
    Hashtbl.iter
      (fun r _ ->
        Hashtbl.remove row_slots.(r) q;
        note_row r)
      cols.(q);
    Hashtbl.reset cols.(q);
    List.iter
      (fun (c, _) ->
        Hashtbl.remove cols.(c) p;
        note_col c)
      us;
    (* exact Schur-complement update of the remaining active block *)
    List.iter
      (fun (r, l) ->
        List.iter
          (fun (c, uv) ->
            let cur =
              match Hashtbl.find_opt cols.(c) r with
              | Some v -> v
              | None -> Rat.zero
            in
            set_entry c r (Rat.sub cur (Rat.mul l uv)))
          us)
      ls
  done;
  { r_m = m; r_prow = prow; r_pslot = pslot; r_diag = diag; r_l = lent;
    r_u = uent }

(* Solve B x = b: b indexed by row, result indexed by slot. *)
let rlu_ftran lu b =
  let m = lu.r_m in
  let w = Array.copy b in
  for k = 0 to m - 1 do
    let t = w.(lu.r_prow.(k)) in
    if not (Rat.is_zero t) then
      Array.iter
        (fun (r, l) -> w.(r) <- Rat.sub w.(r) (Rat.mul l t))
        lu.r_l.(k)
  done;
  let x = Array.make m Rat.zero in
  for k = m - 1 downto 0 do
    let s = ref w.(lu.r_prow.(k)) in
    Array.iter
      (fun (c, u) ->
        if not (Rat.is_zero x.(c)) then s := Rat.sub !s (Rat.mul u x.(c)))
      lu.r_u.(k);
    x.(lu.r_pslot.(k)) <- Rat.div !s lu.r_diag.(k)
  done;
  x

(* Solve B^T y = c: c indexed by slot, result indexed by row. *)
let rlu_btran lu c =
  let m = lu.r_m in
  let s = Array.copy c in
  let y = Array.make m Rat.zero in
  for k = 0 to m - 1 do
    let t = Rat.div s.(lu.r_pslot.(k)) lu.r_diag.(k) in
    y.(lu.r_prow.(k)) <- t;
    if not (Rat.is_zero t) then
      Array.iter
        (fun (c', u) -> s.(c') <- Rat.sub s.(c') (Rat.mul u t))
        lu.r_u.(k)
  done;
  for k = m - 1 downto 0 do
    let acc = ref y.(lu.r_prow.(k)) in
    Array.iter
      (fun (r, l) ->
        if not (Rat.is_zero y.(r)) then acc := Rat.sub !acc (Rat.mul l y.(r)))
      lu.r_l.(k);
    y.(lu.r_prow.(k)) <- !acc
  done;
  y

(* ------------------------------------------------------------------ *)
(* Exact basis solves on the nucleus.

   Slack and artificial columns are unit vectors (see
   {!Simplex.snapshot}), so with the basic slots split into unit slots
   U and structural slots S, and the rows into those a unit slot covers
   (R_U) and the rest (R_N), the basis is

     B = [ A(R_U,S)  I ]
         [ A(R_N,S)  0 ]

   and only the structural nucleus A(R_N,S) needs an LU: B x = b is
   A(R_N,S) x_S = b(R_N), then x_u = b_r - A(r,S) x_S for the unit slot
   u of row r; B^T y = c is y_r = c_u, then
   A(R_N,S)^T y(R_N) = c_S - A(R_U,S)^T y(R_U). A row covered twice
   makes B singular. *)

type basis_lu = {
  b_unit : int array;  (* row -> unit slot covering it, or -1 *)
  b_slots : int array;  (* nucleus position -> structural slot *)
  b_rows : int array;  (* nucleus position -> uncovered row *)
  b_lu : rlu;  (* LU of the nucleus, in nucleus positions *)
}

let factor_basis (s : Simplex.snapshot) =
  let m = s.s_m in
  let unit = Array.make m (-1) and slots = ref [] in
  for k = m - 1 downto 0 do
    let j = s.s_basis.(k) in
    if j < s.s_nstruct then slots := k :: !slots
    else begin
      let r = (j - s.s_nstruct) mod m in
      if unit.(r) >= 0 then raise Singular;
      unit.(r) <- k
    end
  done;
  let slots = Array.of_list !slots in
  let rows = Array.make (Array.length slots) 0 in
  let pos = Array.make m (-1) and n = ref 0 in
  for r = 0 to m - 1 do
    if unit.(r) < 0 then begin
      rows.(!n) <- r;
      pos.(r) <- !n;
      incr n
    end
  done;
  let col q =
    let acc = ref [] in
    Sparse.Csc.iter_col s.s_mat s.s_basis.(slots.(q)) (fun r v ->
        if v <> 0. && pos.(r) >= 0 then
          acc := (pos.(r), Rat.of_float v) :: !acc);
    !acc
  in
  {
    b_unit = unit;
    b_slots = slots;
    b_rows = rows;
    b_lu = rlu_factor ~m:(Array.length slots) ~col;
  }

(* Solve B x = b: b indexed by row, result indexed by slot. *)
let basis_ftran (s : Simplex.snapshot) f b =
  let xn = rlu_ftran f.b_lu (Array.map (fun r -> b.(r)) f.b_rows) in
  let x = Array.make s.s_m Rat.zero and w = Array.copy b in
  Array.iteri
    (fun q v ->
      x.(f.b_slots.(q)) <- v;
      if not (Rat.is_zero v) then
        Sparse.Csc.iter_col s.s_mat s.s_basis.(f.b_slots.(q)) (fun r a ->
            if a <> 0. && f.b_unit.(r) >= 0 then
              w.(r) <- Rat.sub w.(r) (Rat.mul (Rat.of_float a) v)))
    xn;
  Array.iteri (fun r k -> if k >= 0 then x.(k) <- w.(r)) f.b_unit;
  x

(* a_j . y over the rows where y is nonzero: only those coefficients
   are converted *)
let col_dot (s : Simplex.snapshot) j y =
  let acc = ref Rat.zero in
  Sparse.Csc.iter_col s.s_mat j (fun i a ->
      if a <> 0. && not (Rat.is_zero y.(i)) then
        acc := Rat.add !acc (Rat.mul (Rat.of_float a) y.(i)));
  !acc

(* Solve B^T y = c: c indexed by slot, result indexed by row. y is
   still zero off the covered rows when the nucleus right-hand side
   c_S - A(R_U,S)^T y(R_U) is formed. *)
let basis_btran (s : Simplex.snapshot) f c =
  let y = Array.make s.s_m Rat.zero in
  Array.iteri (fun r k -> if k >= 0 then y.(r) <- c.(k)) f.b_unit;
  let cn =
    Array.map (fun k -> Rat.sub c.(k) (col_dot s s.s_basis.(k) y)) f.b_slots
  in
  Array.iteri (fun p v -> y.(f.b_rows.(p)) <- v) (rlu_btran f.b_lu cn);
  y

let basis_solve s ~rhs ~cost =
  match factor_basis s with
  | exception Singular -> None
  | f -> Some (basis_ftran s f rhs, basis_btran s f cost)

(* Effective certification bounds of column [j]: artificial columns
   (everything past the structural + slack block) are fixed at zero —
   the real model has no such variables, so a basis only describes a
   real-model point when its artificial components vanish exactly. *)
let eff_bounds (s : Simplex.snapshot) j =
  if j >= s.s_nstruct + s.s_m then (Some Rat.zero, Some Rat.zero)
  else
    let conv b = if Float.is_finite b then Some (Rat.of_float b) else None in
    (conv s.s_lb.(j), conv s.s_ub.(j))

let num_cols (s : Simplex.snapshot) = s.s_mat.Sparse.Csc.ncols

(* ------------------------------------------------------------------ *)
(* Optimality certification. *)

exception Bail of t

let tol = 1e-6 (* see [check] in certify.mli *)

let scale_tol v = tol *. (1. +. Float.abs v)

let check_optimal (s : Simplex.snapshot) (r : Simplex.result) =
  let m = s.s_m and ncols = num_cols s in
  try
    (* exact values of the nonbasic columns, pinned by their status *)
    let xval = Array.make ncols Rat.zero in
    let infinite_rest () =
      raise
        (Bail
           (uncertifiable
              (No_certificate "nonbasic column rests on an infinite bound")))
    in
    for j = 0 to ncols - 1 do
      let lo, hi = eff_bounds s j in
      match s.s_stat.(j) with
      | Simplex.Basic | Simplex.Free_zero -> ()
      | (Simplex.At_lower | Simplex.At_upper) when j >= s.s_nstruct + m ->
          () (* artificial: fixed at zero *)
      | Simplex.At_lower -> (
          match lo with Some l -> xval.(j) <- l | None -> infinite_rest ())
      | Simplex.At_upper -> (
          match hi with Some u -> xval.(j) <- u | None -> infinite_rest ())
    done;
    (* exact basic values: B x_B = b - N x_N *)
    let b_exact = Array.map Rat.of_float s.s_rhs in
    let rhs = Array.copy b_exact in
    for j = 0 to ncols - 1 do
      if s.s_stat.(j) <> Simplex.Basic && not (Rat.is_zero xval.(j)) then
        Sparse.Csc.iter_col s.s_mat j (fun i a ->
            if a <> 0. then
              rhs.(i) <- Rat.sub rhs.(i) (Rat.mul (Rat.of_float a) xval.(j)))
    done;
    let lu =
      try factor_basis s
      with Singular -> raise (Bail (uncertifiable Singular_basis))
    in
    let xb = basis_ftran s lu rhs in
    Array.iteri (fun k v -> xval.(s.s_basis.(k)) <- v) xb;
    (* exact primal feasibility: the rows hold by construction, so only
       bound feasibility of the basic values is at stake *)
    let worst = ref Rat.zero and worst_col = ref (-1) in
    for k = 0 to m - 1 do
      let j = s.s_basis.(k) in
      let lo, hi = eff_bounds s j in
      let v = xval.(j) in
      let push violation =
        if Rat.compare violation !worst > 0 then begin
          worst := violation;
          worst_col := j
        end
      in
      (match lo with Some l -> push (Rat.sub l v) | None -> ());
      match hi with Some u -> push (Rat.sub v u) | None -> ()
    done;
    (* A material violation refutes the claim outright. An exactly
       positive but tiny one does not end the story: the dual bound
       below is valid for the true model whatever x_B does, so the
       result can still be certified as optimal within tolerance. *)
    if Rat.sign !worst > 0 then begin
      let j = !worst_col in
      let bound_scale =
        Float.max
          (if Float.is_finite s.s_lb.(j) then Float.abs s.s_lb.(j) else 0.)
          (if Float.is_finite s.s_ub.(j) then Float.abs s.s_ub.(j) else 0.)
      in
      let vf = Rat.to_float !worst in
      if vf > tol *. (1. +. bound_scale) then
        raise (Bail (refuted (Bound_violation { column = j; violation = vf })))
    end;
    (* exact objective, against the reported one *)
    let p =
      let acc = ref Rat.zero in
      for j = 0 to ncols - 1 do
        if s.s_cost.(j) <> 0. && not (Rat.is_zero xval.(j)) then
          acc := Rat.add !acc (Rat.mul (Rat.of_float s.s_cost.(j)) xval.(j))
      done;
      !acc
    in
    let pf = Rat.to_float p in
    if Float.abs (pf -. r.Simplex.obj) > scale_tol pf then
      raise
        (Bail (refuted (Objective_mismatch { exact = p; reported = r.obj })));
    (* exact multipliers and the Lagrangian dual bound
       L(y) = y.b + sum over nonbasic j of min over [l,u] of d_j x_j;
       basic columns price to zero exactly because y solves B^T y = c_B *)
    let cb = Array.init m (fun k -> Rat.of_float s.s_cost.(s.s_basis.(k))) in
    let y = basis_btran s lu cb in
    let l_bound = ref Rat.zero in
    for i = 0 to m - 1 do
      if not (Rat.is_zero y.(i)) then
        l_bound := Rat.add !l_bound (Rat.mul y.(i) b_exact.(i))
    done;
    for j = 0 to ncols - 1 do
      if s.s_stat.(j) <> Simplex.Basic then begin
        let d = Rat.sub (Rat.of_float s.s_cost.(j)) (col_dot s j y) in
        let sg = Rat.sign d in
        if sg <> 0 then begin
          let lo, hi = eff_bounds s j in
          match (sg, lo, hi) with
          | 1, Some l, _ -> l_bound := Rat.add !l_bound (Rat.mul d l)
          | -1, _, Some u -> l_bound := Rat.add !l_bound (Rat.mul d u)
          | _ ->
              raise
                (Bail
                   (uncertifiable
                      (No_certificate
                         "dual bound unbounded below: nonzero reduced cost on \
                          a column with no bound on the profitable side")))
        end
      end
    done;
    let gap = Rat.sub p !l_bound in
    if Rat.is_zero gap && Rat.sign !worst <= 0 then
      certified (Exact_optimum { obj = p })
    else begin
      let gf = Rat.to_float gap in
      if gf <= scale_tol pf then
        certified
          (Optimal_within { obj = p; dual_bound = !l_bound; gap = gf })
      else uncertifiable (Dual_gap { gap = gf })
    end
  with Bail t -> t

(* ------------------------------------------------------------------ *)
(* Infeasibility certification: re-derive the Farkas ray exactly from
   the recorded witness and check y.b > max over the box of y.Ax,
   summed over the real (structural + slack) columns only. *)

let check_infeasible (s : Simplex.snapshot) (r : Simplex.result) =
  let m = s.s_m in
  match s.s_infeasibility with
  | None ->
      uncertifiable (No_certificate "no infeasibility witness recorded")
  | Some w -> (
      match factor_basis s with
      | exception Singular -> uncertifiable Singular_basis
      | lu ->
          let cb =
            match w with
            | Simplex.Inf_phase1 c1 ->
                Array.init m (fun k -> Rat.of_float c1.(s.s_basis.(k)))
            | Simplex.Inf_dual_row { row; above } ->
                let e = Array.make m Rat.zero in
                e.(row) <- (if above then Rat.one else Rat.minus_one);
                e
          in
          let y = basis_btran s lu cb in
          let real_cols = s.s_nstruct + m in
          let exception Unbounded_side in
          let gap =
            try
              let acc = ref Rat.zero in
              for i = 0 to m - 1 do
                if not (Rat.is_zero y.(i)) then
                  acc :=
                    Rat.add !acc (Rat.mul y.(i) (Rat.of_float s.s_rhs.(i)))
              done;
              for j = 0 to real_cols - 1 do
                let z = col_dot s j y in
                let sg = Rat.sign z in
                if sg <> 0 then
                  let pick b =
                    if Float.is_finite b then
                      acc := Rat.sub !acc (Rat.mul z (Rat.of_float b))
                    else raise Unbounded_side
                  in
                  if sg > 0 then pick s.s_ub.(j) else pick s.s_lb.(j)
              done;
              Some !acc
            with Unbounded_side -> None
          in
          let witness_row =
            match r.Simplex.farkas with
            | Some f -> f.row
            | None ->
                let best = ref 0 and bv = ref Rat.zero in
                Array.iteri
                  (fun i v ->
                    let a = Rat.abs v in
                    if Rat.compare a !bv > 0 then begin
                      bv := a;
                      best := i
                    end)
                  y;
                !best
          in
          (match gap with
          | None -> uncertifiable (Invalid_ray { shortfall = Float.neg_infinity })
          | Some g when Rat.sign g > 0 ->
              let support = ref [] in
              for i = m - 1 downto 0 do
                if not (Rat.is_zero y.(i)) then support := i :: !support
              done;
              certified
                (Farkas_proof { gap = g; witness_row; support = !support })
          | Some g -> uncertifiable (Invalid_ray { shortfall = Rat.to_float g })))

(* ------------------------------------------------------------------ *)

let check (s : Simplex.snapshot) (r : Simplex.result) =
  match r.Simplex.status with
  | Simplex.Optimal -> check_optimal s r
  | Simplex.Infeasible -> check_infeasible s r
  | Simplex.Unbounded ->
      uncertifiable (No_certificate "unbounded verdicts are not certified")
  | Simplex.Iter_limit ->
      uncertifiable
        (No_certificate "iteration-limit results carry no optimality claim")

let check_lp lp =
  let st = Simplex.create lp in
  let r = Simplex.primal st in
  let snap = Simplex.snapshot st in
  (r, check snap r)

let map_rows f t =
  match t.detail with
  | Farkas_proof { gap; witness_row; support } ->
      {
        t with
        detail =
          Farkas_proof
            {
              gap;
              witness_row = f witness_row;
              support = List.sort_uniq compare (List.map f support);
            };
      }
  | _ -> t

let verdict_name = function
  | Certified -> "certified"
  | Refuted -> "refuted"
  | Uncertifiable -> "uncertifiable"

let exit_code = function Certified -> 0 | Refuted -> 1 | Uncertifiable -> 2

let kind_name = function
  | Exact_optimum _ -> "exact_optimum"
  | Optimal_within _ -> "optimal_within"
  | Farkas_proof _ -> "farkas_proof"
  | Bound_violation _ -> "bound_violation"
  | Objective_mismatch _ -> "objective_mismatch"
  | Dual_gap _ -> "dual_gap"
  | Invalid_ray _ -> "invalid_ray"
  | Singular_basis -> "singular_basis"
  | No_certificate _ -> "no_certificate"

let describe t =
  let v = verdict_name t.verdict in
  match t.detail with
  | Exact_optimum { obj } ->
      Printf.sprintf "%s: exact optimum, objective %s" v (Rat.to_string obj)
  | Optimal_within { obj; gap; _ } ->
      Printf.sprintf "%s: optimal within gap %.3g, exact objective %s" v gap
        (Rat.to_string obj)
  | Farkas_proof { gap; witness_row; support } ->
      Printf.sprintf
        "%s: Farkas infeasibility proof, gap %s over %d rows (witness row %d)"
        v (Rat.to_string gap) (List.length support) witness_row
  | Bound_violation { column; violation } ->
      Printf.sprintf "%s: column %d violates its bound by %.6g" v column
        violation
  | Objective_mismatch { exact; reported } ->
      Printf.sprintf "%s: reported objective %.9g but the basis evaluates to %s"
        v reported (Rat.to_string exact)
  | Dual_gap { gap } ->
      Printf.sprintf "%s: duality gap %.3g above tolerance" v gap
  | Invalid_ray { shortfall } ->
      Printf.sprintf "%s: claimed Farkas ray proves nothing (gap %.3g)" v
        shortfall
  | Singular_basis -> Printf.sprintf "%s: final basis is exactly singular" v
  | No_certificate why -> Printf.sprintf "%s: %s" v why

let to_json ?row_name t =
  let name i =
    match row_name with
    | Some f -> [ ("name", Json.Str (f i)) ]
    | None -> []
  in
  let fields =
    match t.detail with
    | Exact_optimum { obj } ->
        [
          ("objective", Json.Str (Rat.to_string obj));
          ("objective_float", Json.Num (Rat.to_float obj));
        ]
    | Optimal_within { obj; dual_bound; gap } ->
        [
          ("objective", Json.Str (Rat.to_string obj));
          ("objective_float", Json.Num (Rat.to_float obj));
          ("dual_bound", Json.Str (Rat.to_string dual_bound));
          ("gap", Json.Num gap);
        ]
    | Farkas_proof { gap; witness_row; support } ->
        [
          ("gap", Json.Str (Rat.to_string gap));
          ("gap_float", Json.Num (Rat.to_float gap));
          ( "witness_row",
            Json.Obj (("index", Json.Num (float_of_int witness_row)) :: name witness_row) );
          ( "rows",
            Json.Arr
              (List.map
                 (fun i ->
                   Json.Obj (("index", Json.Num (float_of_int i)) :: name i))
                 support) );
        ]
    | Bound_violation { column; violation } ->
        [
          ("column", Json.Num (float_of_int column));
          ("violation", Json.Num violation);
        ]
    | Objective_mismatch { exact; reported } ->
        [
          ("exact", Json.Str (Rat.to_string exact));
          ("exact_float", Json.Num (Rat.to_float exact));
          ("reported", Json.Num reported);
        ]
    | Dual_gap { gap } -> [ ("gap", Json.Num gap) ]
    | Invalid_ray { shortfall } -> [ ("shortfall", Json.Num shortfall) ]
    | Singular_basis -> []
    | No_certificate why -> [ ("reason", Json.Str why) ]
  in
  Json.Obj
    (("verdict", Json.Str (verdict_name t.verdict))
    :: ("kind", Json.Str (kind_name t.detail))
    :: fields)

let pp fmt t = Format.pp_print_string fmt (describe t)
