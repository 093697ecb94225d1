(* Tests for the bounded-variable simplex: hand-checked LPs, degenerate
   and pathological cases, and randomized properties (feasibility of the
   reported optimum, optimality versus sampled feasible points, exact
   certification of cold and warm verdicts, and warm-start/fresh-solve
   agreement). *)

module Lp = Ilp.Lp
module Sx = Ilp.Simplex
module C = Ilp.Certify

let check_float = Alcotest.(check (float 1e-6))

let solve_status lp =
  let r = Sx.solve lp in
  r.Sx.status

let user_obj lp (r : Sx.result) = Lp.obj_sign lp *. r.Sx.obj

(* -------- hand-checked LPs -------- *)

let test_basic_max () =
  (* max 3x + 2y st x + y <= 4; x + 3y <= 6 -> (4, 0), obj 12 *)
  let lp = Lp.create () in
  let x = Lp.add_var lp Lp.Continuous in
  let y = Lp.add_var lp Lp.Continuous in
  ignore (Lp.add_constr lp [ (1., x); (1., y) ] Lp.Le 4.);
  ignore (Lp.add_constr lp [ (1., x); (3., y) ] Lp.Le 6.);
  Lp.set_objective lp ~maximize:true [ (3., x); (2., y) ];
  let r = Sx.solve lp in
  Alcotest.(check bool) "optimal" true (r.Sx.status = Sx.Optimal);
  check_float "obj" 12. (user_obj lp r);
  check_float "x" 4. r.Sx.x.((x :> int));
  check_float "y" 0. r.Sx.x.((y :> int))

let test_phase1_eq_ge () =
  (* min x + y st x + y >= 3; x - y = 1; x <= 2 -> (2, 1), obj 3 *)
  let lp = Lp.create () in
  let x = Lp.add_var lp ~ub:2. Lp.Continuous in
  let y = Lp.add_var lp Lp.Continuous in
  ignore (Lp.add_constr lp [ (1., x); (1., y) ] Lp.Ge 3.);
  ignore (Lp.add_constr lp [ (1., x); (-1., y) ] Lp.Eq 1.);
  Lp.set_objective lp [ (1., x); (1., y) ];
  let r = Sx.solve lp in
  Alcotest.(check bool) "optimal" true (r.Sx.status = Sx.Optimal);
  check_float "obj" 3. r.Sx.obj;
  check_float "x" 2. r.Sx.x.((x :> int));
  check_float "y" 1. r.Sx.x.((y :> int))

let test_infeasible () =
  let lp = Lp.create () in
  let x = Lp.add_var lp Lp.Continuous in
  ignore (Lp.add_constr lp [ (1., x) ] Lp.Le 1.);
  ignore (Lp.add_constr lp [ (1., x) ] Lp.Ge 2.);
  Alcotest.(check bool) "infeasible" true (solve_status lp = Sx.Infeasible)

let test_unbounded () =
  let lp = Lp.create () in
  let x = Lp.add_var lp Lp.Continuous in
  ignore (Lp.add_constr lp [ (1., x) ] Lp.Ge 0.);
  Lp.set_objective lp ~maximize:true [ (1., x) ];
  Alcotest.(check bool) "unbounded" true (solve_status lp = Sx.Unbounded)

let test_bounded_by_var_bounds_only () =
  (* no constraints at all: optimum at the bound *)
  let lp = Lp.create () in
  let x = Lp.add_var lp ~lb:(-3.) ~ub:7. Lp.Continuous in
  ignore (Lp.add_constr lp [ (1., x) ] Lp.Le 100.);
  Lp.set_objective lp ~maximize:true [ (1., x) ];
  let r = Sx.solve lp in
  check_float "at upper bound" 7. r.Sx.x.((x :> int))

let test_negative_lower_bounds () =
  (* min x + y with x >= -5, y >= -5, x + y >= -6 -> obj -6 *)
  let lp = Lp.create () in
  let x = Lp.add_var lp ~lb:(-5.) Lp.Continuous in
  let y = Lp.add_var lp ~lb:(-5.) Lp.Continuous in
  ignore (Lp.add_constr lp [ (1., x); (1., y) ] Lp.Ge (-6.));
  Lp.set_objective lp [ (1., x); (1., y) ];
  let r = Sx.solve lp in
  Alcotest.(check bool) "optimal" true (r.Sx.status = Sx.Optimal);
  check_float "obj" (-6.) r.Sx.obj

let test_free_variable () =
  (* free variable pinned by an equality *)
  let lp = Lp.create () in
  let x = Lp.add_var lp ~lb:Float.neg_infinity ~ub:Float.infinity Lp.Continuous in
  let y = Lp.add_var lp ~ub:10. Lp.Continuous in
  ignore (Lp.add_constr lp [ (1., x); (1., y) ] Lp.Eq 4.);
  Lp.set_objective lp [ (1., x) ];
  let r = Sx.solve lp in
  Alcotest.(check bool) "optimal" true (r.Sx.status = Sx.Optimal);
  (* min x -> y at its max 10, x = -6 *)
  check_float "obj" (-6.) r.Sx.obj

let test_degenerate () =
  (* multiple redundant constraints through one vertex *)
  let lp = Lp.create () in
  let x = Lp.add_var lp Lp.Continuous in
  let y = Lp.add_var lp Lp.Continuous in
  ignore (Lp.add_constr lp [ (1., x); (1., y) ] Lp.Le 1.);
  ignore (Lp.add_constr lp [ (2., x); (2., y) ] Lp.Le 2.);
  ignore (Lp.add_constr lp [ (1., x) ] Lp.Le 1.);
  ignore (Lp.add_constr lp [ (1., y) ] Lp.Le 1.);
  Lp.set_objective lp ~maximize:true [ (1., x); (1., y) ];
  let r = Sx.solve lp in
  check_float "obj" 1. (user_obj lp r)

let test_equality_fixed_value () =
  let lp = Lp.create () in
  let x = Lp.add_var lp ~ub:9. Lp.Continuous in
  ignore (Lp.add_constr lp [ (2., x) ] Lp.Eq 6.);
  Lp.set_objective lp ~maximize:true [ (1., x) ];
  let r = Sx.solve lp in
  check_float "x pinned" 3. r.Sx.x.((x :> int))

let test_zero_rows_model () =
  let lp = Lp.create () in
  let x = Lp.add_var lp ~ub:2. Lp.Continuous in
  (* A model without constraints still needs at least dimension-0 row
     handling: add a vacuous row to exercise m >= 1, then none. *)
  Lp.set_objective lp ~maximize:true [ (1., x) ];
  let r = Sx.solve lp in
  check_float "no rows" 2. (user_obj lp r)

(* -------- randomized properties -------- *)

(* Random LP with a known feasible point: x0 random in [0, 5]^n; rows
   a.x <= a.x0 + slack with a >= 0. Box bounds keep it bounded. *)
type rand_lp = {
  lp : Lp.t;
  x0 : float array;
}

let make_rand_lp (seed : int) ~n ~m =
  let rng = Taskgraph.Prng.create seed in
  let lp = Lp.create () in
  let vars =
    Array.init n (fun _ -> Lp.add_var lp ~ub:5. Lp.Continuous)
  in
  let x0 = Array.init n (fun _ -> Taskgraph.Prng.float rng *. 5.) in
  for _ = 1 to m do
    let terms =
      Array.to_list vars
      |> List.filter_map (fun v ->
             if Taskgraph.Prng.bool rng 0.5 then
               Some (Float.of_int (Taskgraph.Prng.int_in rng 1 4), v)
             else None)
    in
    if terms <> [] then begin
      let act =
        List.fold_left
          (fun acc ((c : float), (v : Lp.var)) -> acc +. (c *. x0.((v :> int))))
          0. terms
      in
      let slack = Taskgraph.Prng.float rng *. 3. in
      ignore (Lp.add_constr lp terms Lp.Le (act +. slack))
    end
  done;
  let obj =
    Array.to_list vars
    |> List.map (fun v ->
           (Float.of_int (Taskgraph.Prng.int_in rng (-3) 3), v))
  in
  Lp.set_objective lp ~maximize:true obj;
  { lp; x0 }

let prop_feasible_and_dominates =
  QCheck.Test.make ~name:"simplex optimum feasible and >= sampled point"
    ~count:150 QCheck.(int_bound 100_000)
    (fun seed ->
      let { lp; x0 } = make_rand_lp seed ~n:6 ~m:8 in
      let r = Sx.solve lp in
      match r.Sx.status with
      | Sx.Optimal ->
        let feas = Ilp.Feas_check.is_feasible ~tol:1e-5 lp r.Sx.x in
        let dominates =
          user_obj lp r +. 1e-5 >= Ilp.Feas_check.objective_value lp x0
        in
        feas && dominates
      | Sx.Unbounded | Sx.Infeasible | Sx.Iter_limit ->
        (* by construction the model is feasible and bounded *)
        false)

let prop_warm_start_agrees =
  QCheck.Test.make
    ~name:"dual_reopt after bound changes agrees with fresh primal" ~count:100
    QCheck.(int_bound 100_000)
    (fun seed ->
      let { lp; _ } = make_rand_lp seed ~n:6 ~m:8 in
      let st = Sx.create lp in
      let r0 = Sx.primal st in
      if r0.Sx.status <> Sx.Optimal then false
      else begin
        let rng = Taskgraph.Prng.create (seed + 7) in
        let ok = ref true in
        for _round = 1 to 5 do
          (* randomly tighten or restore some variable bounds *)
          for j = 0 to 5 do
            if Taskgraph.Prng.bool rng 0.4 then begin
              let fix = Float.of_int (Taskgraph.Prng.int_in rng 0 3) in
              Sx.set_var_bounds st j ~lb:fix ~ub:fix
            end
            else Sx.set_var_bounds st j ~lb:0. ~ub:5.
          done;
          let warm = Sx.dual_reopt st in
          (* fresh state on the same bounds *)
          let lp2 = Lp.copy lp in
          for j = 0 to 5 do
            let lb, ub = Sx.get_var_bounds st j in
            Lp.set_bounds lp2 (Lp.var_of_int lp2 j) ~lb ~ub
          done;
          let fresh = Sx.solve lp2 in
          (match (warm.Sx.status, fresh.Sx.status) with
           | Sx.Optimal, Sx.Optimal ->
             if Float.abs (warm.Sx.obj -. fresh.Sx.obj) > 1e-5 then ok := false
           | Sx.Infeasible, Sx.Infeasible -> ()
           | _, _ -> ok := false)
        done;
        !ok
      end)

(* Dual-degenerate 0-1 relaxations, shaped like the partitioning
   models: [0, 1] boxes, mostly zero costs, and equality rows anchored
   at a random 0-1 point (so the root is feasible). Most reduced costs
   are 0 at any basis, so a warm dual ratio test meets many breakpoints
   tied at ratio 0. *)
let make_degen_lp seed ~n ~m =
  let rng = Taskgraph.Prng.create seed in
  let lp = Lp.create () in
  let vars = Array.init n (fun _ -> Lp.add_var lp ~ub:1. Lp.Continuous) in
  let x0 = Array.init n (fun _ -> if Taskgraph.Prng.bool rng 0.5 then 1. else 0.) in
  for _ = 1 to m do
    let terms =
      Array.to_list vars
      |> List.filter_map (fun v ->
             if Taskgraph.Prng.bool rng 0.4 then
               Some (Float.of_int (Taskgraph.Prng.int_in rng (-1) 2), v)
             else None)
      |> List.filter (fun (c, _) -> c <> 0.)
    in
    if terms <> [] then begin
      let act =
        List.fold_left
          (fun acc ((c : float), (v : Lp.var)) -> acc +. (c *. x0.((v :> int))))
          0. terms
      in
      ignore (Lp.add_constr lp terms Lp.Eq act)
    end
  done;
  (* costs only where x0 is 0: the optimum is 0, as on the paper-tree
     cell, so the duals are 0 and every zero-cost column prices at 0 *)
  let obj =
    Array.to_list vars
    |> List.filter_map (fun (v : Lp.var) ->
           if x0.((v :> int)) = 0. && Taskgraph.Prng.bool rng 0.3 then
             Some (Float.of_int (Taskgraph.Prng.int_in rng 1 3), v)
           else None)
  in
  Lp.set_objective lp obj;
  lp

(* The breakpoints tied at ratio 0 in the first dual ratio test after
   branching basic slot [slot] of the snapshotted basis away from its
   value ([above]: fixed below it). Only that slot turns infeasible, so
   the test prices row [slot] of B^-1 (rho) against the reduced costs
   c - y A; rho and y come from dense solves with B^T. *)
let zero_ratio_ties (s : Sx.snapshot) ~slot ~above =
  let m = s.Sx.s_m in
  let col j =
    let a = Array.make m 0. in
    Ilp.Sparse.Csc.iter_col s.Sx.s_mat j (fun i v -> a.(i) <- v);
    a
  in
  (* row k of B^T is basic column k of A *)
  let bt = Array.map col s.Sx.s_basis in
  let solve_bt rhs =
    let a = Array.map Array.copy bt and b = Array.copy rhs in
    for k = 0 to m - 1 do
      let p = ref k in
      for i = k + 1 to m - 1 do
        if Float.abs a.(i).(k) > Float.abs a.(!p).(k) then p := i
      done;
      let ra = a.(k) and rb = b.(k) in
      a.(k) <- a.(!p);
      b.(k) <- b.(!p);
      a.(!p) <- ra;
      b.(!p) <- rb;
      for i = k + 1 to m - 1 do
        let f = a.(i).(k) /. a.(k).(k) in
        for c = k to m - 1 do
          a.(i).(c) <- a.(i).(c) -. (f *. a.(k).(c))
        done;
        b.(i) <- b.(i) -. (f *. b.(k))
      done
    done;
    let x = Array.make m 0. in
    for k = m - 1 downto 0 do
      let acc = ref b.(k) in
      for c = k + 1 to m - 1 do
        acc := !acc -. (a.(k).(c) *. x.(c))
      done;
      x.(k) <- !acc /. a.(k).(k)
    done;
    x
  in
  let rho = solve_bt (Array.init m (fun i -> if i = slot then 1. else 0.)) in
  let y = solve_bt (Array.map (fun k -> s.Sx.s_cost.(k)) s.Sx.s_basis) in
  let dot u v = Array.fold_left ( +. ) 0. (Array.map2 ( *. ) u v) in
  let ties = ref 0 in
  Array.iteri
    (fun j stat ->
      if stat <> Sx.Basic && s.Sx.s_lb.(j) < s.Sx.s_ub.(j) then begin
        let a = col j in
        let alpha = dot rho a and d = s.Sx.s_cost.(j) -. dot y a in
        (* eligibility as in the engine's dual ratio test *)
        let toward = if above then alpha else -.alpha in
        let eligible =
          match stat with
          | Sx.At_lower -> toward > 1e-9
          | Sx.At_upper -> toward < -1e-9
          | Sx.Free_zero -> Float.abs alpha > 1e-9
          | Sx.Basic -> false
        in
        if eligible && Float.abs (d /. alpha) <= 1e-9 then incr ties
      end)
    s.Sx.s_stat;
  !ties

let test_degenerate_generator_ties () =
  (* [make_degen_lp] is only a degenerate stress test if branching meets
     ties at ratio 0: at each root optimum, branch the first basic
     structural column and count the draws whose first dual ratio test
     has two or more zero-ratio breakpoints. *)
  let n = 24 and tied = ref 0 in
  for seed = 0 to 39 do
    let st = Sx.create (make_degen_lp seed ~n ~m:12) in
    let r0 = Sx.primal st in
    let s = Sx.snapshot st in
    let slot = ref (-1) in
    Array.iteri
      (fun i k -> if !slot < 0 && k < n then slot := i)
      s.Sx.s_basis;
    if r0.Sx.status = Sx.Optimal && !slot >= 0 then begin
      let above = r0.Sx.x.(s.Sx.s_basis.(!slot)) > 0.5 in
      if zero_ratio_ties s ~slot:!slot ~above >= 2 then incr tied
    end
  done;
  (* 17 of the 40 at the time of writing *)
  if !tied < 10 then
    Alcotest.failf "only %d of 40 branchings tie at ratio 0" !tied

(* Branching-like warm starts on [make_degen_lp]: fix a few columns to
   0 or 1 (keeping earlier fixes), dual-reoptimize, and compare with a
   fresh primal solve of the same box. The dual loop must never hit its
   iteration cap. *)
let prop_degenerate_warm_start_agrees =
  QCheck.Test.make
    ~name:"degenerate 0-1 dual_reopt agrees with fresh primal, no stall"
    ~count:100
    QCheck.(int_bound 100_000)
    (fun seed ->
      let n = 24 in
      let lp = make_degen_lp seed ~n ~m:12 in
      let st = Sx.create lp in
      let r0 = Sx.primal st in
      if r0.Sx.status <> Sx.Optimal then false
      else begin
        let rng = Taskgraph.Prng.create (seed + 13) in
        let ok = ref true in
        let last = ref r0 in
        for _round = 1 to 6 do
          (* branch a column away from its current value *)
          for _ = 1 to 2 do
            let j = Taskgraph.Prng.int rng n in
            let fix =
              if !last.Sx.status = Sx.Optimal then
                if !last.Sx.x.(j) > 0.5 then 0. else 1.
              else Float.of_int (Taskgraph.Prng.int rng 2)
            in
            Sx.set_var_bounds st j ~lb:fix ~ub:fix
          done;
          let warm = Sx.dual_reopt st in
          last := warm;
          let lp2 = Lp.copy lp in
          for j = 0 to n - 1 do
            let lb, ub = Sx.get_var_bounds st j in
            Lp.set_bounds lp2 (Lp.var_of_int lp2 j) ~lb ~ub
          done;
          let fresh = Sx.solve lp2 in
          (match (warm.Sx.status, fresh.Sx.status) with
           | Sx.Optimal, Sx.Optimal ->
             if Float.abs (warm.Sx.obj -. fresh.Sx.obj) > 1e-6 then ok := false
           | Sx.Infeasible, Sx.Infeasible -> ()
           | _, _ -> ok := false)
        done;
        !ok && (Sx.stats st).Sx.dual_stalls = 0
      end)

(* Mixed-sense random LPs: equalities and >= rows anchored at a known
   feasible point, plus occasional negative lower bounds. *)
let make_rand_mixed seed ~n ~m =
  let rng = Taskgraph.Prng.create seed in
  let lp = Lp.create () in
  let vars =
    Array.init n (fun _ ->
        if Taskgraph.Prng.bool rng 0.2 then
          Lp.add_var lp ~lb:(-3.) ~ub:4. Lp.Continuous
        else Lp.add_var lp ~ub:5. Lp.Continuous)
  in
  let x0 =
    Array.init n (fun j ->
        let v = Lp.var_of_int lp j in
        let lo = Lp.var_lb lp v and hi = Lp.var_ub lp v in
        lo +. (Taskgraph.Prng.float rng *. (hi -. lo)))
  in
  for _ = 1 to m do
    let terms =
      Array.to_list vars
      |> List.filter_map (fun v ->
             if Taskgraph.Prng.bool rng 0.5 then
               Some (Float.of_int (Taskgraph.Prng.int_in rng (-3) 4), v)
             else None)
    in
    if terms <> [] then begin
      let act =
        List.fold_left
          (fun acc ((c : float), (v : Lp.var)) -> acc +. (c *. x0.((v :> int))))
          0. terms
      in
      match Taskgraph.Prng.int rng 3 with
      | 0 -> ignore (Lp.add_constr lp terms Lp.Le (act +. (Taskgraph.Prng.float rng *. 3.)))
      | 1 -> ignore (Lp.add_constr lp terms Lp.Ge (act -. (Taskgraph.Prng.float rng *. 3.)))
      | _ -> ignore (Lp.add_constr lp terms Lp.Eq act)
    end
  done;
  let obj =
    Array.to_list vars
    |> List.map (fun v -> (Float.of_int (Taskgraph.Prng.int_in rng (-3) 3), v))
  in
  Lp.set_objective lp ~maximize:true obj;
  (lp, x0)

let prop_mixed_senses =
  QCheck.Test.make ~name:"mixed eq/ge/le rows with negative bounds" ~count:150
    QCheck.(int_bound 100_000)
    (fun seed ->
      let lp, x0 = make_rand_mixed seed ~n:7 ~m:7 in
      let r = Sx.solve lp in
      match r.Sx.status with
      | Sx.Optimal ->
        Ilp.Feas_check.is_feasible ~tol:1e-5 lp r.Sx.x
        && user_obj lp r +. 1e-5 >= Ilp.Feas_check.objective_value lp x0
      | Sx.Unbounded | Sx.Infeasible | Sx.Iter_limit -> false)

(* Does the engine's last verdict [r] certify exactly from its basis?
   An optimum must be {!C.Certified} with an exact objective within
   1e-9 of [r.obj], an infeasible verdict through its Farkas ray. Every
   other status fails. *)
let certifies st (r : Sx.result) =
  let c = C.check (Sx.snapshot st) r in
  c.C.verdict = C.Certified
  &&
  match (r.Sx.status, c.C.detail) with
  | Sx.Optimal, (C.Exact_optimum { obj } | C.Optimal_within { obj; _ }) ->
    Float.abs (Ilp.Rat.to_float obj -. r.Sx.obj) <= 1e-9
  | Sx.Infeasible, C.Farkas_proof _ -> true
  | _, _ -> false

(* Re-optimizes [st] warm after a round of bound changes and checks the
   verdict twice: exactly from its own basis, and against a cold solve
   of the same box on a fresh engine (same status, optima within
   [tol]). *)
let warm_verdict_holds ~tol lp st =
  let r = Sx.dual_reopt st in
  certifies st r
  &&
  let lp2 = Lp.copy lp in
  for j = 0 to Sx.num_structural st - 1 do
    let lb, ub = Sx.get_var_bounds st j in
    Lp.set_bounds lp2 (Lp.var_of_int lp2 j) ~lb ~ub
  done;
  let cold = Sx.solve lp2 in
  cold.Sx.status = r.Sx.status
  && (r.Sx.status <> Sx.Optimal || Float.abs (cold.Sx.obj -. r.Sx.obj) <= tol)

let prop_cold_verdicts_certify =
  QCheck.Test.make ~name:"cold verdicts certify exactly" ~count:150
    QCheck.(int_bound 100_000)
    (fun seed ->
      let lp, _ = make_rand_mixed seed ~n:8 ~m:9 in
      let st = Sx.create lp in
      let r = Sx.primal st in
      certifies st r
      && (r.Sx.status <> Sx.Optimal
         || (r.Sx.primal_res <= 1e-6 && r.Sx.dual_res <= 1e-6)))

let prop_warm_verdicts_certify =
  QCheck.Test.make
    ~name:"warm verdicts certify through bound changes"
    ~count:60
    QCheck.(int_bound 100_000)
    (fun seed ->
      let { lp; _ } = make_rand_lp seed ~n:7 ~m:9 in
      let st = Sx.create lp in
      ignore (Sx.primal st);
      let rng = Taskgraph.Prng.create (seed + 13) in
      let ok = ref true in
      for _round = 1 to 5 do
        for j = 0 to 6 do
          if Taskgraph.Prng.bool rng 0.4 then begin
            let fix = Float.of_int (Taskgraph.Prng.int_in rng 0 3) in
            Sx.set_var_bounds st j ~lb:fix ~ub:fix
          end
          else Sx.set_var_bounds st j ~lb:0. ~ub:5.
        done;
        if not (warm_verdict_holds ~tol:1e-9 lp st) then ok := false
      done;
      !ok)

let prop_lp_bound_below_milp =
  QCheck.Test.make ~name:"LP relaxation bounds the MILP optimum" ~count:80
    QCheck.(int_bound 100_000)
    (fun seed ->
      (* binary knapsack-ish models *)
      let rng = Taskgraph.Prng.create seed in
      let lp = Lp.create () in
      let n = 7 in
      let vars = Array.init n (fun _ -> Lp.add_var lp Lp.Binary) in
      for _ = 1 to 4 do
        let terms =
          Array.to_list vars
          |> List.filter_map (fun v ->
                 if Taskgraph.Prng.bool rng 0.7 then
                   Some (Float.of_int (Taskgraph.Prng.int_in rng 1 5), v)
                 else None)
        in
        if terms <> [] then
          ignore
            (Lp.add_constr lp terms Lp.Le
               (Float.of_int (Taskgraph.Prng.int_in rng 3 12)))
      done;
      Lp.set_objective lp ~maximize:true
        (Array.to_list vars
        |> List.map (fun v -> (Float.of_int (Taskgraph.Prng.int_in rng 1 9), v)));
      let relax = Sx.solve lp in
      match (relax.Sx.status, Ilp.Branch_bound.solve lp) with
      | Sx.Optimal, (Ilp.Branch_bound.Optimal { obj; _ }, _) ->
        (* both minimization-oriented: relaxation is a lower bound *)
        relax.Sx.obj <= obj +. 1e-6
      | _ -> false)


(* ---------------- bound flips ---------------- *)

(* Hand-built 0-1 model where the dual bound-flipping ratio test
   provably flips: one equality row
     x1 + x2 + 0.5 x3 + x4 + y = 2
   with x1, x2, x3, x4 in [0,1], y in [0, 0.3], maximizing
   x1 + x2 - 0.6 x3 - 2 x4. The optimum is x1 = x2 = 1 with y basic at
   0. Fixing x1 at 0 pushes y to 1 > 0.3; the cheapest repair flips x3
   to its upper bound (ratio 1.2, reducing the excess by 0.5) and then
   pivots x4 in for the remaining 0.2 — one basis change, one flip. *)
let bfrt_model () =
  let lp = Lp.create () in
  let x1 = Lp.add_var lp ~ub:1. Lp.Continuous in
  let x2 = Lp.add_var lp ~ub:1. Lp.Continuous in
  let x3 = Lp.add_var lp ~ub:1. Lp.Continuous in
  let x4 = Lp.add_var lp ~ub:1. Lp.Continuous in
  let y = Lp.add_var lp ~ub:0.3 Lp.Continuous in
  ignore
    (Lp.add_constr lp
       [ (1., x1); (1., x2); (0.5, x3); (1., x4); (1., y) ]
       Lp.Eq 2.);
  Lp.set_objective lp ~maximize:true
    [ (1., x1); (1., x2); (-0.6, x3); (-2., x4) ];
  lp

let test_bfrt_flips_to_optimum () =
  let lp = bfrt_model () in
  let st = Sx.create lp in
  let r0 = Sx.primal st in
  Alcotest.(check bool) "cold optimal" true (r0.Sx.status = Sx.Optimal);
  check_float "cold obj" 2. (user_obj lp r0);
  let flips0 = Sx.bound_flips st in
  Sx.set_var_bounds st 0 ~lb:0. ~ub:0.;
  let warm = Sx.dual_reopt st in
  Alcotest.(check bool) "warm optimal" true (warm.Sx.status = Sx.Optimal);
  check_float "warm obj" 0. (user_obj lp warm);
  Alcotest.(check bool) "flip happened" true (Sx.bound_flips st > flips0);
  check_float "x3 flipped to upper" 1. warm.Sx.x.(2);
  (* the warm answer matches a fresh solve on the tightened model *)
  let lp2 = Lp.copy lp in
  Lp.set_bounds lp2 (Lp.var_of_int lp2 0) ~lb:0. ~ub:0.;
  let fresh = Sx.solve lp2 in
  check_float "fresh agrees" (user_obj lp2 fresh) (user_obj lp warm)

(* maximize x1 + x2 under x1 + x2 <= 5, x in [0,1]^2, optionally with a
   free zero-cost column [z] in no row. [z] has no finite bound, so the
   slack basis cannot start dual feasible and the cold solve takes
   primal phase I/II. *)
let entering_flip_model ~free_column =
  let lp = Lp.create () in
  let x1 = Lp.add_var lp ~ub:1. Lp.Continuous in
  let x2 = Lp.add_var lp ~ub:1. Lp.Continuous in
  if free_column then
    ignore
      (Lp.add_var lp ~lb:Float.neg_infinity ~ub:Float.infinity Lp.Continuous);
  ignore (Lp.add_constr lp [ (1., x1); (1., x2) ] Lp.Le 5.);
  Lp.set_objective lp ~maximize:true [ (1., x1); (1., x2) ];
  lp

let test_entering_column_flip () =
  (* Through phase I/II both columns hit their opposite bound before any
     row blocks, so the ratio test reports flips and the basis never
     changes. *)
  let lp = entering_flip_model ~free_column:true in
  let st = Sx.create lp in
  let r = Sx.primal st in
  Alcotest.(check bool) "optimal" true (r.Sx.status = Sx.Optimal);
  check_float "obj" 2. (user_obj lp r);
  Alcotest.(check bool) "flips counted" true (Sx.bound_flips st >= 2);
  Alcotest.(check int) "no pivot needed" 0 (Sx.total_pivots st);
  Alcotest.(check int) "took phase I" 1 (Sx.stats st).Sx.cold_primal

let test_cost_side_start () =
  (* Without the free column every column is boxed: the cold solve
     starts both columns at the upper bound their negative
     (minimization) cost asks for, which is already optimal. *)
  let lp = entering_flip_model ~free_column:false in
  let st = Sx.create lp in
  let r = Sx.primal st in
  Alcotest.(check bool) "optimal" true (r.Sx.status = Sx.Optimal);
  check_float "obj" 2. (user_obj lp r);
  Alcotest.(check int) "no pivot needed" 0 (Sx.total_pivots st);
  Alcotest.(check int) "no flip needed" 0 (Sx.bound_flips st);
  Alcotest.(check int) "no phase I" 0 (Sx.stats st).Sx.cold_primal

let test_bfrt_exhaustion_is_infeasible () =
  (* After fixing every nonbasic column, the violated row cannot be
     repaired: the dual ratio test runs dry and must report
     infeasibility with a usable Farkas certificate — without applying
     any of the flips it considered. *)
  let lp = Lp.create () in
  let x1 = Lp.add_var lp ~ub:1. Lp.Continuous in
  let x2 = Lp.add_var lp ~ub:1. Lp.Continuous in
  let y = Lp.add_var lp ~ub:0.3 Lp.Continuous in
  ignore (Lp.add_constr lp [ (1., x1); (1., x2); (1., y) ] Lp.Eq 2.);
  Lp.set_objective lp ~maximize:true [ (1., x1); (1., x2) ];
  let st = Sx.create lp in
  let r0 = Sx.primal st in
  Alcotest.(check bool) "cold optimal" true (r0.Sx.status = Sx.Optimal);
  Sx.set_var_bounds st 0 ~lb:0. ~ub:0.;
  Sx.set_var_bounds st 1 ~lb:0.5 ~ub:0.5;
  let warm = Sx.dual_reopt st in
  Alcotest.(check bool) "infeasible" true (warm.Sx.status = Sx.Infeasible);
  Alcotest.(check bool) "farkas present" true (warm.Sx.farkas <> None)

(* Binary-box random LPs: every structural variable is 0-1, which makes
   the bound-flipping paths hot both cold and warm. *)
let make_rand_01 seed ~n ~m =
  let rng = Taskgraph.Prng.create (seed * 2 + 1) in
  let lp = Lp.create () in
  let vars = Array.init n (fun _ -> Lp.add_var lp ~ub:1. Lp.Continuous) in
  for _ = 1 to m do
    let terms =
      Array.to_list vars
      |> List.filter_map (fun v ->
             if Taskgraph.Prng.bool rng 0.5 then
               Some (Float.of_int (Taskgraph.Prng.int_in rng (-2) 4), v)
             else None)
    in
    if terms <> [] then begin
      let cap =
        List.fold_left
          (fun acc (c, _) -> acc +. Float.max 0. c)
          0. terms
      in
      ignore
        (Lp.add_constr lp terms Lp.Le (Taskgraph.Prng.float rng *. cap))
    end
  done;
  Lp.set_objective lp ~maximize:true
    (Array.to_list vars
    |> List.map (fun v -> (Float.of_int (Taskgraph.Prng.int_in rng (-3) 5), v)));
  lp

let prop_devex_01_warm_certify =
  QCheck.Test.make
    ~name:"devex bound flips: warm 0-1 verdicts certify and match cold"
    ~count:80
    QCheck.(int_bound 100_000)
    (fun seed ->
      let lp = make_rand_01 seed ~n:8 ~m:6 in
      let st = Sx.create lp in
      ignore (Sx.primal st);
      let rng = Taskgraph.Prng.create (seed + 41) in
      let ok = ref true in
      for _round = 1 to 4 do
        for j = 0 to 7 do
          if Taskgraph.Prng.bool rng 0.35 then begin
            let fix = Float.of_int (Taskgraph.Prng.int rng 2) in
            Sx.set_var_bounds st j ~lb:fix ~ub:fix
          end
          else Sx.set_var_bounds st j ~lb:0. ~ub:1.
        done;
        if not (warm_verdict_holds ~tol:1e-7 lp st) then ok := false
      done;
      !ok)

(* -------- basis export / install (warm-start shipping) -------- *)

let prop_shipped_basis_reaches_optimum =
  (* The parallel search's shipping protocol: solve a parent LP on one
     engine, export its basis, install it into a DIFFERENT engine of
     the same model, tighten some bounds (the child's branching fixes)
     and dual-reoptimize. The result must match a cold solve of the
     child bounds. *)
  QCheck.Test.make
    ~name:"warm start from a shipped basis matches the cold optimum"
    ~count:100
    QCheck.(int_bound 100_000)
    (fun seed ->
      let lp = make_rand_01 seed ~n:8 ~m:6 in
      let parent = Sx.create lp in
      let r0 = Sx.primal parent in
      if r0.Sx.status <> Sx.Optimal then true (* covered elsewhere *)
      else begin
        let b = Sx.export_basis parent in
        let thief = Sx.create lp in
        if not (Sx.install_basis thief b) then false
        else begin
          let rng = Taskgraph.Prng.create (seed + 13) in
          let lp2 = Lp.copy lp in
          for j = 0 to 7 do
            if Taskgraph.Prng.bool rng 0.4 then begin
              let fix = Float.of_int (Taskgraph.Prng.int rng 2) in
              Sx.set_var_bounds thief j ~lb:fix ~ub:fix;
              Lp.set_bounds lp2 (Lp.var_of_int lp2 j) ~lb:fix ~ub:fix
            end
          done;
          let warm = Sx.dual_reopt thief in
          let cold = Sx.solve lp2 in
          match (warm.Sx.status, cold.Sx.status) with
          | Sx.Optimal, Sx.Optimal ->
            Float.abs (warm.Sx.obj -. cold.Sx.obj) <= 1e-7
          | Sx.Infeasible, Sx.Infeasible -> true
          | _, _ -> false
        end
      end)

let test_basis_mismatch_falls_back () =
  (* A basis exported from a model of different dimensions must be
     rejected, and the refusing engine must still solve cleanly from
     its cold slack basis afterwards. *)
  let lp_big = make_rand_01 7 ~n:8 ~m:6 in
  let lp_small = make_rand_01 7 ~n:5 ~m:4 in
  let donor = Sx.create lp_big in
  ignore (Sx.primal donor);
  let b = Sx.export_basis donor in
  let eng = Sx.create lp_small in
  Alcotest.(check bool) "mismatched basis rejected" false
    (Sx.install_basis eng b);
  let stats = Sx.stats eng in
  Alcotest.(check (pair int int)) "install and fallback counted" (1, 1)
    (stats.Sx.basis_installs, stats.Sx.install_fallbacks);
  let r = Sx.primal eng in
  Alcotest.(check bool) "engine recovers with a cold solve" true
    (r.Sx.status = Sx.Optimal);
  let reference = Sx.solve lp_small in
  Alcotest.(check (float 1e-7)) "and reaches the true optimum"
    reference.Sx.obj r.Sx.obj

let test_stale_basis_reopt () =
  (* A basis exported BEFORE later pivots is stale but dimensionally
     valid: installing it must succeed and dual_reopt must still land
     on the optimum of the current bounds. *)
  let lp = make_rand_01 21 ~n:8 ~m:6 in
  let eng = Sx.create lp in
  let r0 = Sx.primal eng in
  Alcotest.(check bool) "base solve optimal" true (r0.Sx.status = Sx.Optimal);
  let stale = Sx.export_basis eng in
  (* walk the engine elsewhere: fix a few variables and re-optimize *)
  Sx.set_var_bounds eng 0 ~lb:1. ~ub:1.;
  Sx.set_var_bounds eng 3 ~lb:0. ~ub:0.;
  ignore (Sx.dual_reopt eng);
  (* now install the stale root basis and re-solve the CURRENT bounds *)
  Alcotest.(check bool) "stale basis installs" true
    (Sx.install_basis eng stale);
  let warm = Sx.dual_reopt eng in
  let lp2 = Lp.copy lp in
  Lp.set_bounds lp2 (Lp.var_of_int lp2 0) ~lb:1. ~ub:1.;
  Lp.set_bounds lp2 (Lp.var_of_int lp2 3) ~lb:0. ~ub:0.;
  let cold = Sx.solve lp2 in
  Alcotest.(check bool) "same status" true (warm.Sx.status = cold.Sx.status);
  if warm.Sx.status = Sx.Optimal then
    Alcotest.(check (float 1e-7)) "same objective" cold.Sx.obj warm.Sx.obj

let test_dual_stall_counted () =
  (* With no iteration budget the dual loop stalls at once and falls
     back to a primal restart: the fallback is counted in the engine's
     shard, which the engine stats and the registry snapshot both read. *)
  let lp = Lp.create () in
  let x = Lp.add_var lp ~ub:4. Lp.Continuous in
  let y = Lp.add_var lp ~ub:4. Lp.Continuous in
  ignore (Lp.add_constr lp [ (1., x); (1., y) ] Lp.Le 5.);
  Lp.set_objective lp ~maximize:true [ (2., x); (1., y) ];
  let m = Ilp.Metrics.create () in
  let st = Sx.create ~shard:(Ilp.Metrics.make_shard ~registry:m ()) lp in
  ignore (Sx.primal st);
  Alcotest.(check int) "no stall yet" 0 (Sx.stats st).Sx.dual_stalls;
  Sx.set_var_bounds st (x :> int) ~lb:0. ~ub:1.;
  ignore (Sx.dual_reopt ~max_iters:0 st);
  Alcotest.(check int) "stall counted" 1 (Sx.stats st).Sx.dual_stalls;
  Alcotest.(check int) "no singular restart" 0 (Sx.stats st).Sx.primal_restarts;
  Alcotest.(check int) "stall in the registry" 1
    (Ilp.Metrics.counter_value (Ilp.Metrics.snapshot m)
       Ilp.Metrics.C_lp_dual_stalls);
  let r = Sx.dual_reopt st in
  Alcotest.(check bool) "then optimal" true (r.Sx.status = Sx.Optimal);
  check_float "obj" 6. (user_obj lp r);
  Alcotest.(check int) "still one stall" 1 (Sx.stats st).Sx.dual_stalls

let test_singular_restart_counted () =
  (* A badly scaled basis that only the LU's absolute pivot threshold
     calls singular. The free column x0 forces primal phase I, which
     ends infeasible with x2 and x0 basic on rows 1 and 2 (the other
     slots hold unit columns). Each ratio-test pivot was well above
     the 1e-9 pivot tolerance relative to the basis before it, and the
     2x2 nucleus [[-3, -1e8]; [1e-12, -1e-4]] has determinant 4e-4.
     But the refactorization that guards the infeasibility verdict
     pivots on -1e8 first, which leaves 1e-12 + 3e-12 as the last
     pivot, below {!Ilp.Lu}'s absolute 1e-11: [Lu.Singular]. Phase I
     restarts once from the slack basis, the restart is counted, and
     the second hit gives up with [Iter_limit]. *)
  let lp = Lp.create () in
  let x0 =
    Lp.add_var lp ~lb:Float.neg_infinity ~ub:Float.infinity Lp.Continuous
  in
  let x1 = Lp.add_var lp ~ub:6. Lp.Continuous in
  let x2 = Lp.add_var lp ~ub:2. Lp.Continuous in
  ignore (Lp.add_constr lp [ (2., x2); (2., x1) ] Lp.Eq (-3.));
  ignore
    (Lp.add_constr lp [ (-3., x2); (-3., x1); (-1e8, x0) ] Lp.Eq (-1.));
  ignore (Lp.add_constr lp [ (1e-12, x2); (-1e-4, x0) ] Lp.Eq 0.);
  ignore
    (Lp.add_constr lp [ (-2., x2); (-2., x1); (-1e8, x0) ] Lp.Ge (-2.));
  Lp.set_objective lp ~maximize:true [ (2., x2) ];
  let st = Sx.create lp in
  let r = Sx.primal st in
  let s = Sx.stats st in
  Alcotest.(check int) "took phase I" 1 s.Sx.cold_primal;
  Alcotest.(check int) "restart counted" 1 s.Sx.singular_restarts;
  Alcotest.(check bool) "second hit gives up" true
    (r.Sx.status = Sx.Iter_limit);
  Alcotest.(check bool) "pp shows it" true
    (let text = Format.asprintf "%a" Sx.pp_stats s in
     let key = " singular-restarts=1 " in
     let n = String.length key in
     let rec go i =
       i + n <= String.length text && (String.sub text i n = key || go (i + 1))
     in
     go 0)

let test_cold_dual_stall_falls_back () =
  (* A one-iteration budget stalls the cold dual loop on a degenerate
     0-1 model whose slack start violates its equality rows. The
     fallback is primal phase I, counted as a stall and as a phase-I
     solve; it never returns to the dual start. *)
  let lp = make_degen_lp 0 ~n:24 ~m:12 in
  let m = Ilp.Metrics.create () in
  let st = Sx.create ~shard:(Ilp.Metrics.make_shard ~registry:m ()) lp in
  let capped = Sx.primal ~max_iters:1 st in
  Alcotest.(check bool) "capped solve gives up" true
    (capped.Sx.status = Sx.Iter_limit);
  let stats = Sx.stats st in
  Alcotest.(check int) "stall counted" 1 stats.Sx.dual_stalls;
  Alcotest.(check int) "phase I counted" 1 stats.Sx.cold_primal;
  Alcotest.(check int) "no singular restart" 0 stats.Sx.primal_restarts;
  Alcotest.(check int) "phase I in the registry" 1
    (Ilp.Metrics.counter_value (Ilp.Metrics.snapshot m)
       Ilp.Metrics.C_lp_cold_primal);
  let r = Sx.primal st in
  Alcotest.(check bool) "then optimal" true (r.Sx.status = Sx.Optimal);
  check_float "obj" 0. r.Sx.obj;
  let stats = Sx.stats st in
  Alcotest.(check (pair int int)) "uncapped solve takes the dual start"
    (1, 1) (stats.Sx.dual_stalls, stats.Sx.cold_primal)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "simplex"
    [
      ( "hand-checked",
        [
          Alcotest.test_case "basic max" `Quick test_basic_max;
          Alcotest.test_case "phase1 eq/ge" `Quick test_phase1_eq_ge;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "var bounds only" `Quick
            test_bounded_by_var_bounds_only;
          Alcotest.test_case "negative lower bounds" `Quick
            test_negative_lower_bounds;
          Alcotest.test_case "free variable" `Quick test_free_variable;
          Alcotest.test_case "degenerate vertex" `Quick test_degenerate;
          Alcotest.test_case "equality pins value" `Quick
            test_equality_fixed_value;
          Alcotest.test_case "bounds-only model" `Quick test_zero_rows_model;
        ] );
      ( "bound-flips",
        [
          Alcotest.test_case "dual BFRT flips to the optimum" `Quick
            test_bfrt_flips_to_optimum;
          Alcotest.test_case "entering column flips without pivot" `Quick
            test_entering_column_flip;
          Alcotest.test_case "cost-side start needs no pivot" `Quick
            test_cost_side_start;
          Alcotest.test_case "BFRT exhaustion certifies infeasibility" `Quick
            test_bfrt_exhaustion_is_infeasible;
          Alcotest.test_case "degenerate generator ties at ratio 0" `Quick
            test_degenerate_generator_ties;
        ] );
      ( "basis-shipping",
        [
          Alcotest.test_case "mismatched basis falls back" `Quick
            test_basis_mismatch_falls_back;
          Alcotest.test_case "stale basis reopt" `Quick test_stale_basis_reopt;
          Alcotest.test_case "dual stall counted" `Quick
            test_dual_stall_counted;
          Alcotest.test_case "cold dual stall falls back to phase I" `Quick
            test_cold_dual_stall_falls_back;
          Alcotest.test_case "phase-I singular restart counted" `Quick
            test_singular_restart_counted;
        ] );
      ( "properties",
        [ qt prop_feasible_and_dominates; qt prop_warm_start_agrees;
          qt prop_degenerate_warm_start_agrees;
          qt prop_mixed_senses; qt prop_cold_verdicts_certify;
          qt prop_warm_verdicts_certify;
          qt prop_devex_01_warm_certify; qt prop_lp_bound_below_milp;
          qt prop_shipped_basis_reaches_optimum ] );
    ]
