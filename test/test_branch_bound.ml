(* Tests for the MILP branch and bound: hand-checked knapsacks,
   exhaustive cross-checks on random small binary models, and the
   behavior of limits and custom branch rules. *)

module Lp = Ilp.Lp
module Bb = Ilp.Branch_bound

let check_float = Alcotest.(check (float 1e-6))

let user_obj lp v = Lp.obj_sign lp *. v

let knapsack values weights cap =
  let lp = Lp.create () in
  let vars = Array.map (fun _ -> Lp.add_var lp Lp.Binary) values in
  ignore
    (Lp.add_constr lp
       (Array.to_list (Array.mapi (fun i v -> (weights.(i), v)) vars))
       Lp.Le cap);
  Lp.set_objective lp ~maximize:true
    (Array.to_list (Array.mapi (fun i v -> (values.(i), v)) vars));
  (lp, vars)

let test_knapsack () =
  let lp, _ = knapsack [| 10.; 6.; 4. |] [| 5.; 4.; 3. |] 8. in
  match Bb.solve lp with
  | Bb.Optimal { obj; x }, stats ->
    check_float "obj" 14. (user_obj lp obj);
    Alcotest.(check (array (float 1e-6))) "x" [| 1.; 0.; 1. |] x;
    Alcotest.(check bool) "nodes > 0" true (stats.Bb.nodes >= 1)
  | o, _ -> Alcotest.failf "unexpected %a" Bb.pp_outcome o

let test_infeasible_milp () =
  let lp = Lp.create () in
  let x = Lp.add_var lp Lp.Binary in
  let y = Lp.add_var lp Lp.Binary in
  (* x + y = 1 and x + y >= 2: LP infeasible *)
  ignore (Lp.add_constr lp [ (1., x); (1., y) ] Lp.Eq 1.);
  ignore (Lp.add_constr lp [ (1., x); (1., y) ] Lp.Ge 2.);
  (match Bb.solve lp with
   | Bb.Infeasible, _ -> ()
   | o, _ -> Alcotest.failf "unexpected %a" Bb.pp_outcome o)

let test_integrality_gap () =
  (* LP relaxation fractional: x + y <= 1.5 with max x + y -> MILP 1 *)
  let lp = Lp.create () in
  let x = Lp.add_var lp Lp.Binary in
  let y = Lp.add_var lp Lp.Binary in
  ignore (Lp.add_constr lp [ (1., x); (1., y) ] Lp.Le 1.5);
  Lp.set_objective lp ~maximize:true [ (1., x); (1., y) ];
  match Bb.solve lp with
  | Bb.Optimal { obj; _ }, stats ->
    check_float "obj" 1. (user_obj lp obj);
    Alcotest.(check bool) "branched" true (stats.Bb.nodes >= 2);
    check_float "root relaxation" (-1.5) stats.Bb.root_obj
  | o, _ -> Alcotest.failf "unexpected %a" Bb.pp_outcome o

let test_general_integer () =
  (* max 2a + 3b, a <= 3.7, 2a + b <= 7, a,b general integer >= 0, b <= 4 *)
  let lp = Lp.create () in
  let a = Lp.add_var lp ~ub:3.7 Lp.Integer in
  let b = Lp.add_var lp ~ub:4. Lp.Integer in
  ignore (Lp.add_constr lp [ (2., a); (1., b) ] Lp.Le 7.);
  Lp.set_objective lp ~maximize:true [ (2., a); (3., b) ];
  match Bb.solve lp with
  | Bb.Optimal { obj; x }, _ ->
    (* b = 4 forced best: 2a + 4 <= 7 -> a = 1; obj = 14 *)
    check_float "obj" 14. (user_obj lp obj);
    check_float "a" 1. x.((a :> int));
    check_float "b" 4. x.((b :> int))
  | o, _ -> Alcotest.failf "unexpected %a" Bb.pp_outcome o

let test_node_limit () =
  let lp, _ =
    knapsack
      (Array.init 12 (fun i -> Float.of_int (7 + (i mod 5))))
      (Array.init 12 (fun i -> Float.of_int (3 + (i mod 7))))
      17.
  in
  let options = { Bb.default_options with Bb.max_nodes = 1 } in
  match Bb.solve ~options lp with
  | Bb.Limit_reached _, stats ->
    Alcotest.(check bool) "few nodes" true (stats.Bb.nodes <= 1)
  | Bb.Optimal _, _ ->
    (* a 1-node optimum is possible only if the relaxation was integral;
       with these weights it is not *)
    Alcotest.fail "expected node limit"
  | o, _ -> Alcotest.failf "unexpected %a" Bb.pp_outcome o

let test_custom_branch_rule () =
  (* a rule may pick an unfixed variable even when integral; once the
     variable is fixed at a node, the solver falls back gracefully *)
  let lp, vars = knapsack [| 10.; 6.; 4. |] [| 5.; 4.; 3. |] 8. in
  let bogus =
    Some
      (fun ~lp_solution:_ ~is_fixed:_ -> Some ((vars.(0) : Lp.var :> int)))
  in
  let options = { Bb.default_options with Bb.branch_rule = bogus } in
  match Bb.solve ~options lp with
  | Bb.Optimal { obj; _ }, _ -> check_float "obj" 14. (user_obj lp obj)
  | o, _ -> Alcotest.failf "unexpected %a" Bb.pp_outcome o

let test_on_incumbent_callback () =
  let lp, _ = knapsack [| 10.; 6.; 4. |] [| 5.; 4.; 3. |] 8. in
  let calls = ref [] in
  let options =
    {
      Bb.default_options with
      Bb.on_incumbent = Some (fun obj _ -> calls := obj :: !calls);
    }
  in
  (match Bb.solve ~options lp with
   | Bb.Optimal { obj; _ }, _ ->
     Alcotest.(check bool) "called" true (!calls <> []);
     (* incumbents improve monotonically; the last equals the optimum *)
     check_float "last incumbent" obj (List.hd !calls);
     let rec monotone = function
       | a :: (b :: _ as rest) -> a <= b +. 1e-9 && monotone rest
       | _ -> true
     in
     Alcotest.(check bool) "monotone" true (monotone !calls)
   | o, _ -> Alcotest.failf "unexpected %a" Bb.pp_outcome o)

let test_fractionality () =
  check_float "0.5" 0.5 (Bb.fractionality 0.5);
  check_float "2.25" 0.25 (Bb.fractionality 2.25);
  check_float "3.0" 0. (Bb.fractionality 3.);
  check_float "-1.75" 0.25 (Bb.fractionality (-1.75))

(* -------- exhaustive cross-check on random binary models -------- *)

let brute_force lp n =
  (* enumerate all 2^n binary points; return best user objective *)
  let best = ref None in
  for code = 0 to (1 lsl n) - 1 do
    let x = Array.init n (fun j -> Float.of_int ((code lsr j) land 1)) in
    if Ilp.Feas_check.is_feasible lp x then begin
      let v = Ilp.Feas_check.objective_value lp x in
      match !best with
      | None -> best := Some v
      | Some b -> if v > b then best := Some v
    end
  done;
  !best

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

let prop_matches_brute_force =
  QCheck.Test.make ~name:"b&b equals exhaustive enumeration (n<=8)" ~count:120
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let n = 4 + (seed mod 5) in
      let lp = make_rand_binary seed ~n ~m:5 in
      let expect = brute_force lp n in
      match (Bb.solve lp, expect) with
      | (Bb.Optimal { obj; x }, _), Some b ->
        Float.abs (user_obj lp obj -. b) <= 1e-6
        && Ilp.Feas_check.is_feasible lp x
      | (Bb.Infeasible, _), None -> true
      | _, _ -> false)

let prop_warm_equals_cold =
  QCheck.Test.make ~name:"warm-start b&b equals from-scratch b&b" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let lp = make_rand_binary seed ~n:8 ~m:6 in
      let solve warm =
        let options = { Bb.default_options with Bb.warm_start = warm } in
        Bb.solve ~options lp
      in
      match (solve true, solve false) with
      | (Bb.Optimal { obj = a; _ }, _), (Bb.Optimal { obj = b; _ }, _) ->
        Float.abs (a -. b) <= 1e-6
      | (Bb.Infeasible, _), (Bb.Infeasible, _) -> true
      | _, _ -> false)

(* -------- historical default-config behavior -------- *)

(* Every configuration runs the same node path (bound deltas, parent
   basis warm starts), so the node counts of the default search and of
   each deduction configuration are pinned. The counts are those of the
   single LP engine (devex pricing, bound-flipping dual ratio test,
   bucket LU); a change here means the search or the node LPs'
   vertices drifted. The objectives are the true optima and must never
   change. *)
let test_default_node_counts_frozen () =
  List.iter
    (fun (config, options, rows) ->
      List.iter
        (fun (seed, nodes, obj) ->
          let lp = make_rand_binary seed ~n:16 ~m:12 in
          match Bb.solve ~options lp with
          | Bb.Optimal { obj = o; _ }, stats ->
            Alcotest.(check int)
              (Printf.sprintf "%s seed %d node count" config seed)
              nodes stats.Bb.nodes;
            check_float
              (Printf.sprintf "%s seed %d objective" config seed)
              obj (user_obj lp o)
          | o, _ ->
            Alcotest.failf "%s seed %d: unexpected %a" config seed
              Bb.pp_outcome o)
        rows)
    [
      ( "default",
        Bb.default_options,
        [ (21, 35, 1.); (25, 41, 10.); (33, 41, 5.); (59, 75, 20.) ] );
      ( "rc_fixing",
        { Bb.default_options with Bb.rc_fixing = true },
        [ (21, 35, 1.); (25, 41, 10.); (33, 27, 5.); (59, 55, 20.) ] );
      ( "propagate",
        { Bb.default_options with Bb.propagate = true },
        [ (21, 31, 1.); (25, 17, 10.); (33, 23, 5.); (59, 39, 20.) ] );
      ( "rc_fixing+propagate",
        { Bb.default_options with Bb.rc_fixing = true; propagate = true },
        [ (21, 25, 1.); (25, 17, 10.); (33, 17, 5.); (59, 19, 20.) ] );
    ]

(* A backtracking sequential search reinstalls the parent's basis for
   every backtracked sibling; no install may fail, and the warm search
   must reach the cold search's optimum. *)
let test_sibling_basis_installs () =
  let lp = make_rand_binary 21 ~n:16 ~m:12 in
  let solve warm_start =
    match Bb.solve ~options:{ Bb.default_options with Bb.warm_start } lp with
    | Bb.Optimal { obj; _ }, stats -> (obj, stats.Bb.lp_stats)
    | o, _ -> Alcotest.failf "unexpected %a" Bb.pp_outcome o
  in
  let warm, lps = solve true and cold, _ = solve false in
  Alcotest.(check bool) "basis installs" true (lps.Ilp.Simplex.basis_installs > 0);
  Alcotest.(check int) "install fallbacks" 0 lps.Ilp.Simplex.install_fallbacks;
  check_float "warm optimum = cold optimum" cold warm

let test_default_deductions_idle () =
  (* with everything off, no deduction counter may move *)
  let lp = make_rand_binary 21 ~n:16 ~m:12 in
  match Bb.solve lp with
  | Bb.Optimal _, stats ->
    let d = stats.Bb.deductions in
    Alcotest.(check int) "rc fixings" 0 d.Bb.rc_fixed;
    Alcotest.(check int) "propagation fixings" 0 d.Bb.prop_fixings;
    Alcotest.(check int) "propagation prunes" 0 d.Bb.prop_prunes;
    Alcotest.(check (float 0.)) "propagation time" 0. d.Bb.prop_seconds
  | o, _ -> Alcotest.failf "unexpected %a" Bb.pp_outcome o

(* -------- incumbent sources -------- *)

let test_search_tag_by_default () =
  (* without a node hook every incumbent comes from the tree search,
     and the timeline says so *)
  let lp, _ =
    knapsack
      (Array.init 12 (fun i -> Float.of_int (7 + (i mod 5))))
      (Array.init 12 (fun i -> Float.of_int (3 + (i mod 7))))
      17.
  in
  let _, stats = Bb.solve lp in
  Alcotest.(check bool) "timeline nonempty" true
    (Array.length stats.Bb.timeline > 0);
  Array.iter
    (fun (_, _, _, src) ->
      Alcotest.(check bool) "search tag" true (src = Ilp.Trace.Src_search))
    stats.Bb.timeline

(* -------- parallel search (jobs > 1) -------- *)

(* Big enough that the search outlives the sequential seeding phase and
   nodes actually flow through the worker domains. *)
let parallel_knapsack () =
  knapsack
    (Array.init 18 (fun i -> Float.of_int (5 + ((i * 7) mod 11))))
    (Array.init 18 (fun i -> Float.of_int (2 + ((i * 5) mod 9))))
    31.

let test_parallel_matches_sequential () =
  let lp, _ = parallel_knapsack () in
  let solve jobs =
    let options = { Bb.default_options with Bb.jobs } in
    Bb.solve ~options lp
  in
  match (solve 1, solve 4) with
  | (Bb.Optimal { obj = a; _ }, s1), (Bb.Optimal { obj = b; _ }, s4) ->
    check_float "same optimum" a b;
    Alcotest.(check int) "no workers sequential" 0 (Array.length s1.Bb.workers);
    Alcotest.(check int) "one row per worker" 4 (Array.length s4.Bb.workers)
  | (o1, _), (o4, _) ->
    Alcotest.failf "unexpected %a / %a" Bb.pp_outcome o1 Bb.pp_outcome o4

let test_parallel_infeasible () =
  let lp = Lp.create () in
  let x = Lp.add_var lp Lp.Binary in
  let y = Lp.add_var lp Lp.Binary in
  ignore (Lp.add_constr lp [ (1., x); (1., y) ] Lp.Eq 1.);
  ignore (Lp.add_constr lp [ (1., x); (1., y) ] Lp.Ge 2.);
  let options = { Bb.default_options with Bb.jobs = 4 } in
  match Bb.solve ~options lp with
  | Bb.Infeasible, _ -> ()
  | o, _ -> Alcotest.failf "unexpected %a" Bb.pp_outcome o

let test_parallel_bad_jobs () =
  let lp, _ = knapsack [| 1. |] [| 1. |] 1. in
  Alcotest.check_raises "jobs < 1" (Invalid_argument "Branch_bound.solve: jobs < 1")
    (fun () ->
      ignore (Bb.solve ~options:{ Bb.default_options with Bb.jobs = 0 } lp))

let test_deterministic_reproducible () =
  let lp, _ = parallel_knapsack () in
  let solve () =
    let options =
      { Bb.default_options with Bb.jobs = 3; Bb.deterministic = true }
    in
    Bb.solve ~options lp
  in
  match (solve (), solve ()) with
  | (Bb.Optimal { obj = a; _ }, s1), (Bb.Optimal { obj = b; _ }, s2) ->
    check_float "same optimum" a b;
    Alcotest.(check int) "same node count" s1.Bb.nodes s2.Bb.nodes
  | (o1, _), (o2, _) ->
    Alcotest.failf "unexpected %a / %a" Bb.pp_outcome o1 Bb.pp_outcome o2

let test_parallel_incumbent_serialized () =
  (* The incumbent callback must never run concurrently with itself and
     must only see strictly improving objectives, even with 4 workers
     racing. The reentrancy flag would trip if two domains overlapped
     inside the callback. *)
  let lp, _ = parallel_knapsack () in
  let in_callback = Atomic.make false in
  let overlaps = Atomic.make 0 in
  let tears = Atomic.make 0 in
  let last = ref Float.infinity (* protected by the solver's user lock *) in
  let on_incumbent obj _x =
    if not (Atomic.compare_and_set in_callback false true) then
      Atomic.incr overlaps;
    if obj >= !last -. 1e-9 then Atomic.incr tears;
    last := obj;
    Domain.cpu_relax ();
    Atomic.set in_callback false
  in
  let options =
    {
      Bb.default_options with
      Bb.jobs = 4;
      Bb.on_incumbent = Some on_incumbent;
    }
  in
  match Bb.solve ~options lp with
  | Bb.Optimal _, stats ->
    Alcotest.(check int) "no concurrent callbacks" 0 (Atomic.get overlaps);
    Alcotest.(check int) "strictly improving sequence" 0 (Atomic.get tears);
    Alcotest.(check bool) "incumbents seen" true (stats.Bb.incumbents >= 1)
  | o, _ -> Alcotest.failf "unexpected %a" Bb.pp_outcome o

let test_parallel_node_limit () =
  let lp, _ = parallel_knapsack () in
  let options = { Bb.default_options with Bb.jobs = 4; Bb.max_nodes = 30 } in
  match Bb.solve ~options lp with
  | Bb.Limit_reached { bound; _ }, stats ->
    (* soft target: every worker may overshoot by at most one node *)
    Alcotest.(check bool) "near the limit" true (stats.Bb.nodes <= 30 + 5);
    Alcotest.(check bool) "bound is finite or -inf" true
      (Float.is_finite bound || bound = Float.neg_infinity)
  | Bb.Optimal _, stats ->
    (* legal only if the whole tree fit under the limit *)
    Alcotest.(check bool) "finished under limit" true (stats.Bb.nodes <= 30 + 5)
  | o, _ -> Alcotest.failf "unexpected %a" Bb.pp_outcome o

let prop_parallel_matches_sequential =
  QCheck.Test.make ~name:"parallel b&b equals sequential b&b" ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let lp = make_rand_binary seed ~n:9 ~m:6 in
      let solve jobs =
        Bb.solve ~options:{ Bb.default_options with Bb.jobs } lp
      in
      match (solve 1, solve 3) with
      | (Bb.Optimal { obj = a; _ }, _), (Bb.Optimal { obj = b; _ }, _) ->
        Float.abs (a -. b) <= 1e-6
      | (Bb.Infeasible, _), (Bb.Infeasible, _) -> true
      | _, _ -> false)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "branch-bound"
    [
      ( "hand-checked",
        [
          Alcotest.test_case "knapsack" `Quick test_knapsack;
          Alcotest.test_case "infeasible" `Quick test_infeasible_milp;
          Alcotest.test_case "integrality gap" `Quick test_integrality_gap;
          Alcotest.test_case "general integer" `Quick test_general_integer;
          Alcotest.test_case "node limit" `Quick test_node_limit;
          Alcotest.test_case "custom branch rule" `Quick
            test_custom_branch_rule;
          Alcotest.test_case "incumbent callback" `Quick
            test_on_incumbent_callback;
          Alcotest.test_case "fractionality" `Quick test_fractionality;
        ] );
      ( "historical",
        [
          Alcotest.test_case "default node counts frozen" `Quick
            test_default_node_counts_frozen;
          Alcotest.test_case "sibling basis installs" `Quick
            test_sibling_basis_installs;
          Alcotest.test_case "deduction counters idle by default" `Quick
            test_default_deductions_idle;
        ] );
      ( "search",
        [
          Alcotest.test_case "search tag by default" `Quick
            test_search_tag_by_default;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "matches sequential" `Quick
            test_parallel_matches_sequential;
          Alcotest.test_case "infeasible" `Quick test_parallel_infeasible;
          Alcotest.test_case "jobs < 1 rejected" `Quick test_parallel_bad_jobs;
          Alcotest.test_case "deterministic reproducible" `Quick
            test_deterministic_reproducible;
          Alcotest.test_case "incumbent callbacks serialized" `Quick
            test_parallel_incumbent_serialized;
          Alcotest.test_case "node limit" `Quick test_parallel_node_limit;
        ] );
      ( "properties",
        [
          qt prop_matches_brute_force;
          qt prop_warm_equals_cold;
          qt prop_parallel_matches_sequential;
        ] );
    ]
