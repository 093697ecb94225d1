(* Tests for the activity-propagation kernel shared by presolve and the
   per-node deductions of branch and bound: single-row deduction steps,
   conflict/empty-domain detection, seeded incremental runs, and the
   property that the search, which propagates and fixes by reduced cost
   at every node, finds the brute-force optimum of random binary models
   with a feasible solution vector. *)

module Lp = Ilp.Lp
module Pr = Ilp.Propagate
module Bb = Ilp.Branch_bound

let check_float = Alcotest.(check (float 1e-9))

let binary_bounds lp =
  let n = Lp.num_vars lp in
  ( Array.init n (fun j -> Lp.var_lb lp (Lp.var_of_int lp j)),
    Array.init n (fun j -> Lp.var_ub lp (Lp.var_of_int lp j)) )

let test_activity () =
  let lp = Lp.create () in
  let x = Lp.add_var lp Lp.Binary in
  let y = Lp.add_var lp Lp.Binary in
  ignore (Lp.add_constr lp [ (2., x); (-3., y) ] Lp.Le 1.);
  let prop = Pr.of_lp lp in
  let lb, ub = binary_bounds lp in
  let lo, hi = Pr.activity prop 0 ~lb ~ub in
  check_float "min activity" (-3.) lo;
  check_float "max activity" 2. hi

let test_step_fixes_integer () =
  (* 2x + 3y <= 4 with x fixed at 1 forces y <= 2/3, i.e. y = 0. *)
  let lp = Lp.create () in
  let x = Lp.add_var lp Lp.Binary in
  let y = Lp.add_var lp Lp.Binary in
  ignore (Lp.add_constr lp [ (2., x); (3., y) ] Lp.Le 4.);
  let prop = Pr.of_lp lp in
  let lb, ub = binary_bounds lp in
  lb.((x : Lp.var :> int)) <- 1.;
  let moved = ref [] in
  Pr.step prop 0 ~lb ~ub ~on_change:(fun j -> moved := j :: !moved);
  Alcotest.(check (list int)) "y moved" [ (y : Lp.var :> int) ] !moved;
  check_float "y ub" 0. ub.((y : Lp.var :> int))

let test_conflict () =
  let lp = Lp.create () in
  let x = Lp.add_var lp Lp.Binary in
  let y = Lp.add_var lp Lp.Binary in
  ignore (Lp.add_constr lp ~name:"cap" [ (1., x); (1., y) ] Lp.Ge 3.);
  let prop = Pr.of_lp lp in
  let lb, ub = binary_bounds lp in
  (match Pr.run prop ~lb ~ub () with
   | Pr.Conflict name -> Alcotest.(check string) "witness row" "cap" name
   | Pr.Ok _ | Pr.Empty_domain _ -> Alcotest.fail "expected conflict")

let test_empty_domain () =
  (* x >= 1 and x <= 0 close x's domain. *)
  let lp = Lp.create () in
  let x = Lp.add_var lp Lp.Binary in
  let y = Lp.add_var lp Lp.Binary in
  ignore (Lp.add_constr lp [ (1., x); (0.5, y) ] Lp.Ge 1.4);
  ignore (Lp.add_constr lp [ (1., x); (-0.5, y) ] Lp.Le 0.1);
  let prop = Pr.of_lp lp in
  let lb, ub = binary_bounds lp in
  match Pr.run prop ~lb ~ub () with
  | Pr.Empty_domain _ | Pr.Conflict _ -> ()
  | Pr.Ok _ -> Alcotest.fail "expected an infeasibility proof"

let test_seeded_cascade () =
  (* chain: x + y >= 1, y + z <= 1. Fixing x = 0 seeds row 0, which
     fixes y = 1, which cascades into row 1 and fixes z = 0. *)
  let lp = Lp.create () in
  let x = Lp.add_var lp Lp.Binary in
  let y = Lp.add_var lp Lp.Binary in
  let z = Lp.add_var lp Lp.Binary in
  ignore (Lp.add_constr lp [ (1., x); (1., y) ] Lp.Ge 1.);
  ignore (Lp.add_constr lp [ (1., y); (1., z) ] Lp.Le 1.);
  let prop = Pr.of_lp lp in
  let lb, ub = binary_bounds lp in
  ub.((x : Lp.var :> int)) <- 0.;
  match Pr.run prop ~lb ~ub ~seeds:[ (x : Lp.var :> int) ] () with
  | Pr.Ok d ->
    check_float "y fixed at 1" 1. lb.((y : Lp.var :> int));
    check_float "z fixed at 0" 0. ub.((z : Lp.var :> int));
    Alcotest.(check int) "two deduced fixes" 2 (List.length d.Pr.fixes)
  | Pr.Empty_domain _ | Pr.Conflict _ -> Alcotest.fail "unexpected infeasible"

(* Same random-model family as test_presolve.ml: presolve and
   propagation are audited against one generator. *)
let make_rand_binary seed ~n ~m =
  let rng = Taskgraph.Prng.create seed in
  let lp = Lp.create () in
  let vars = Array.init n (fun _ -> Lp.add_var lp Lp.Binary) in
  for _ = 1 to m do
    let terms =
      Array.to_list vars
      |> List.filter_map (fun v ->
             if Taskgraph.Prng.bool rng 0.6 then
               Some (Float.of_int (Taskgraph.Prng.int_in rng (-3) 4), v)
             else None)
    in
    if terms <> [] then begin
      let rhs = Float.of_int (Taskgraph.Prng.int_in rng 0 6) in
      let sense = if Taskgraph.Prng.bool rng 0.8 then Lp.Le else Lp.Ge in
      ignore (Lp.add_constr lp terms sense rhs)
    end
  done;
  Lp.set_objective lp ~maximize:true
    (Array.to_list vars
    |> List.map (fun v -> (Float.of_int (Taskgraph.Prng.int_in rng (-5) 5), v)));
  lp

(* The best user objective over all 2^n binary points, or [None] when
   none is feasible: an oracle that shares no code with the search. *)
let brute_force lp =
  let n = Lp.num_vars lp in
  let best = ref None in
  for code = 0 to (1 lsl n) - 1 do
    let x = Array.init n (fun j -> Float.of_int ((code lsr j) land 1)) in
    if Ilp.Feas_check.is_feasible lp x then begin
      let v = Ilp.Feas_check.objective_value lp x in
      match !best with
      | Some b when b >= v -> ()
      | _ -> best := Some v
    end
  done;
  !best

(* Solving with each configuration in [configs] must reach the
   brute-force optimum, and its solution vector must be feasible for
   the model with that objective value (optima need not be unique, so
   vectors are compared through the model, not bitwise). *)
let solve_preserved lp configs =
  let expect = brute_force lp in
  List.for_all
    (fun opts ->
      match (Bb.solve ~options:opts lp, expect) with
      | (Bb.Optimal { x; _ }, _), Some b ->
        Ilp.Feas_check.is_feasible lp x
        && Float.abs (Ilp.Feas_check.objective_value lp x -. b) <= 1e-6
      | (Bb.Infeasible, _), None -> true
      | _ -> false)
    configs

let prop_solve_preserved ~name configs =
  QCheck.Test.make ~name ~count:80
    QCheck.(int_bound 1_000_000)
    (fun seed -> solve_preserved (make_rand_binary seed ~n:10 ~m:8) configs)

let prop_propagate_preserves_optimum =
  prop_solve_preserved ~name:"propagation preserves the MILP optimum"
    [ Bb.default_options ]

(* At jobs 2 the seeding phase may re-fix root bounds before the
   workers build their engines. The deterministic deal makes such runs
   reproducible; with stealing, workers fix and propagate against the
   shared incumbent. *)
let parallel_configs =
  let par = { Bb.default_options with Bb.jobs = 2 } in
  [ { par with Bb.deterministic = true }; par ]

let prop_full_stack_preserves_optimum =
  prop_solve_preserved ~name:"full deduction stack preserves the MILP optimum"
    parallel_configs

(* Two instances whose seeding phase re-fixes root bounds and then
   spawns workers that branch on the re-fixed variables: a worker engine
   that kept the model's bounds instead of the root bounds would solve
   LPs looser than its bound mirror and branch on a fixed variable. *)
let test_mirror_across_worker_spawn () =
  List.iter
    (fun seed ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d optimum" seed)
        true
        (solve_preserved (make_rand_binary seed ~n:14 ~m:10) parallel_configs))
    [ 6; 21 ]

let prop_propagation_never_cuts_feasible_points =
  QCheck.Test.make ~name:"root propagation keeps every feasible binary point"
    ~count:80
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let n = 6 in
      let lp = make_rand_binary seed ~n ~m:5 in
      let prop = Pr.of_lp lp in
      let lb, ub = binary_bounds lp in
      match Pr.run prop ~lb ~ub () with
      | Pr.Conflict _ | Pr.Empty_domain _ ->
        (* then no binary point may be feasible *)
        let any = ref false in
        for code = 0 to (1 lsl n) - 1 do
          let x = Array.init n (fun j -> Float.of_int ((code lsr j) land 1)) in
          if Ilp.Feas_check.is_feasible lp x then any := true
        done;
        not !any
      | Pr.Ok _ ->
        (* every feasible point must survive inside the tightened box *)
        let ok = ref true in
        for code = 0 to (1 lsl n) - 1 do
          let x = Array.init n (fun j -> Float.of_int ((code lsr j) land 1)) in
          if Ilp.Feas_check.is_feasible lp x then
            Array.iteri
              (fun j v ->
                if v < lb.(j) -. 1e-9 || v > ub.(j) +. 1e-9 then ok := false)
              x
        done;
        !ok)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "propagate"
    [
      ( "unit",
        [
          Alcotest.test_case "activity" `Quick test_activity;
          Alcotest.test_case "integer step" `Quick test_step_fixes_integer;
          Alcotest.test_case "conflict" `Quick test_conflict;
          Alcotest.test_case "empty domain" `Quick test_empty_domain;
          Alcotest.test_case "seeded cascade" `Quick test_seeded_cascade;
          Alcotest.test_case "mirror across worker spawn" `Quick
            test_mirror_across_worker_spawn;
        ] );
      ( "properties",
        [
          qt prop_propagate_preserves_optimum;
          qt prop_full_stack_preserves_optimum;
          qt prop_propagation_never_cuts_feasible_points;
        ] );
    ]
