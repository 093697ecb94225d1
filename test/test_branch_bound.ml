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

(* The limit path, at jobs 1 on the 12-item knapsack: the incumbent,
   the bound over the open nodes (the node the limit stopped on
   included) and the bound timeline's last entry, per node limit. The
   values are 7-11 and so integral: a node is pruned once it cannot
   beat the incumbent by a whole unit, which closes the tree at its
   17th node. *)
let test_node_limit () =
  let lp, _ =
    knapsack
      (Array.init 12 (fun i -> Float.of_int (7 + (i mod 5))))
      (Array.init 12 (fun i -> Float.of_int (3 + (i mod 7))))
      17.
  in
  List.iter
    (fun (max_nodes, best, bound) ->
      let options = { Bb.default_options with Bb.max_nodes } in
      let outcome, stats = Bb.solve ~options lp in
      let name = Printf.sprintf "max_nodes %d: %s" max_nodes in
      let last =
        match stats.Bb.bound_timeline with
        | [||] -> Float.nan
        | bt -> snd bt.(Array.length bt - 1)
      in
      Alcotest.(check int)
        (name "no workers") 0
        (Array.length stats.Bb.workers);
      Alcotest.(check int) (name "nodes") max_nodes stats.Bb.nodes;
      check_float (name "last bound_timeline entry") bound last;
      match outcome with
      | Bb.Limit_reached { best = b; bound = got } ->
        Alcotest.(check (option (float 1e-6)))
          (name "incumbent") best (Option.map fst b);
        check_float (name "bound") bound got
      | Bb.Optimal { obj; _ } when max_nodes = 17 ->
        Alcotest.(check (option (float 1e-6))) (name "optimum") best (Some obj)
      | o ->
        Alcotest.failf "max_nodes %d: unexpected %a" max_nodes Bb.pp_outcome
          o)
    [
      (1, None, -41.);
      (2, None, -41.);
      (5, Some (-36.), -41.);
      (16, Some (-39.), -40.6);
      (17, Some (-39.), -39.);
    ]

(* An integral LP point that breaks a row by more than the incumbent
   guard's 1e-5 is no incumbent. At 1e12 the float spacing is 1.2e-4, so
   the LP's y2 rounds to y1 and y1 - y2 = 3e-5 reads 0; z is integral at
   the LP optimum, so there is nothing to branch on either. The search
   reports a limit, never that point as an optimum, with the root LP's
   objective as its bound. *)
let test_rejected_integral_point () =
  let lp = Lp.create () in
  let y1 = Lp.add_var lp ~lb:1e12 Lp.Continuous in
  let y2 = Lp.add_var lp Lp.Continuous in
  let z = Lp.add_var lp Lp.Binary in
  ignore (Lp.add_constr lp [ (1., y1); (-1., y2) ] Lp.Eq 3e-5);
  Lp.set_objective lp [ (1., y1); (1., z) ];
  match Bb.solve lp with
  | Bb.Limit_reached { best = None; bound }, stats ->
    Alcotest.(check int) "one node" 1 stats.Bb.nodes;
    check_float "bound is the root LP objective" 1e12 bound;
    Alcotest.(check bool) "closed as numeric" true
      (Array.exists
         (fun (r : Ilp.Metrics.node_lp_row) ->
           r.Ilp.Metrics.nl_reason = "numeric" && r.Ilp.Metrics.nl_nodes = 1)
         stats.Bb.node_lps)
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

(* The node counts of the default search (bound deltas, parent basis
   warm starts, propagation and reduced-cost fixing at every node) are
   pinned. The counts are those of the single LP engine (devex pricing,
   bound-flipping dual ratio test, bucket LU) with the whole-unit cutoff
   these integral objectives earn; a change here means the search, its
   deductions or the node LPs' vertices drifted. The
   objectives are the true optima and must never change. *)
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
        [ (21, 23, 1.); (25, 17, 10.); (33, 13, 5.); (59, 18, 20.) ] );
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

(* Propagation runs once per evaluated node, in every search context:
   at jobs 2 the seeding phase and each worker count their own runs and
   nodes, and the totals still agree. *)
let test_propagation_per_node () =
  let lp = make_rand_binary 21 ~n:16 ~m:12 in
  List.iter
    (fun jobs ->
      let m = Ilp.Metrics.create () in
      let options = { Bb.default_options with Bb.jobs; metrics = Some m } in
      match Bb.solve ~options lp with
      | Bb.Optimal _, stats ->
        let snap = Ilp.Metrics.snapshot m in
        let runs = Ilp.Metrics.counter_value snap C_prop_runs in
        Alcotest.(check int)
          (Printf.sprintf "jobs %d: runs = nodes" jobs)
          stats.Bb.nodes runs;
        Alcotest.(check int)
          (Printf.sprintf "jobs %d: runs = nodes counted" jobs)
          (Ilp.Metrics.counter_value snap C_nodes)
          runs
      | o, _ -> Alcotest.failf "unexpected %a" Bb.pp_outcome o)
    [ 1; 2 ]

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

(* -------- the node hook's two call points -------- *)

(* LP solves recorded in [m]. *)
let lp_solves m = Ilp.Metrics.counter_value (Ilp.Metrics.snapshot m) C_lp_solves

(* A hook that settles a node on its bounds closes it with no LP solve:
   the LP count does not move from the settling call to the next node's
   call, and the search solves one LP per node it did not settle. Item
   0 is in the only optimum, so pruning every node that fixes it out
   keeps the optimum. *)
let test_hook_settles_before_lp () =
  let lp, vars = knapsack [| 10.; 6.; 4. |] [| 5.; 4.; 3. |] 8. in
  let j0 = (vars.(0) : Lp.var :> int) in
  let m = Ilp.Metrics.create () in
  let settled_at = ref None and leaks = ref 0 in
  let hook point ~is_fixed =
    match point with
    | Bb.Lp_solution _ -> Bb.Hook_none
    | Bb.Bounds lb ->
      (* the previous settled node ran no LP after its settling call *)
      (match !settled_at with
       | Some n when lp_solves m <> n -> incr leaks
       | _ -> ());
      settled_at := None;
      if is_fixed j0 && lb.(j0) < 0.5 then begin
        settled_at := Some (lp_solves m);
        Bb.Hook_prune
      end
      else Bb.Hook_none
  in
  let options =
    { Bb.default_options with Bb.node_hook = Some hook; metrics = Some m }
  in
  (match Bb.solve ~options lp with
   | Bb.Optimal { obj; _ }, stats ->
     check_float "optimum kept" 14. (user_obj lp obj);
     let d = stats.Bb.deductions in
     Alcotest.(check bool) "a node settled" true (d.Bb.hook_pre_lp > 0);
     Alcotest.(check int) "no LP at a settled node" 0 !leaks;
     Alcotest.(check int) "one LP per unsettled node"
       (stats.Bb.nodes - d.Bb.hook_pre_lp) (lp_solves m)
   | o, _ -> Alcotest.failf "unexpected %a" Bb.pp_outcome o);
  (* a root settled on its bounds: one node, no LP at all *)
  let m = Ilp.Metrics.create () in
  let options =
    {
      Bb.default_options with
      Bb.node_hook = Some (fun _ ~is_fixed:_ -> Bb.Hook_prune);
      metrics = Some m;
    }
  in
  match Bb.solve ~options lp with
  | Bb.Infeasible, stats ->
    Alcotest.(check int) "one node" 1 stats.Bb.nodes;
    Alcotest.(check int) "settled before its LP" 1
      stats.Bb.deductions.Bb.hook_pre_lp;
    Alcotest.(check int) "no LP solve" 0 (lp_solves m);
    Alcotest.(check bool)
      "no root objective" true
      (Float.is_nan stats.Bb.root_obj)
  | o, _ -> Alcotest.failf "unexpected %a" Bb.pp_outcome o

(* A root the hook settles on its bounds needs no LP engine: the search
   factorizes nothing and installs no basis, sequentially and with two
   workers (which never receive a node). *)
let test_settled_root_builds_no_engine () =
  let lp, _ = knapsack [| 10.; 6.; 4. |] [| 5.; 4.; 3. |] 8. in
  List.iter
    (fun jobs ->
      let options =
        {
          Bb.default_options with
          Bb.node_hook = Some (fun _ ~is_fixed:_ -> Bb.Hook_prune);
          jobs;
        }
      in
      match Bb.solve ~options lp with
      | Bb.Infeasible, stats ->
        let l = stats.Bb.lp_stats in
        let what s = Printf.sprintf "%s at jobs %d" s jobs in
        Alcotest.(check int) (what "settled root") 1
          stats.Bb.deductions.Bb.hook_pre_lp;
        Alcotest.(check int) (what "no factorization") 0
          l.Ilp.Simplex.factorizations;
        Alcotest.(check int) (what "no basis install") 0
          l.Ilp.Simplex.basis_installs;
        Alcotest.(check int) (what "no pivot") 0 l.Ilp.Simplex.pivots;
        Alcotest.(check int) (what "no fill") 0 l.Ilp.Simplex.fill
      | o, _ -> Alcotest.failf "unexpected %a" Bb.pp_outcome o)
    [ 1; 2 ]

(* A hook that gives up on the bounds lets the node LP run, and is not
   asked about the bounds again after it: one [Bounds] call, then one
   [Lp_solution] call, at the only node. *)
let test_hook_give_up_before_lp () =
  let lp, _ =
    knapsack
      (Array.init 12 (fun i -> Float.of_int (7 + (i mod 5))))
      (Array.init 12 (fun i -> Float.of_int (3 + (i mod 7))))
      17.
  in
  let m = Ilp.Metrics.create () in
  let calls = ref [] in
  let hook point ~is_fixed:_ =
    match point with
    | Bb.Bounds _ ->
      calls :=
        Printf.sprintf "bounds after %d solve(s)" (lp_solves m) :: !calls;
      Bb.Hook_gave_up "bounds"
    | Bb.Lp_solution _ ->
      calls := Printf.sprintf "lp after %d solve(s)" (lp_solves m) :: !calls;
      Bb.Hook_none
  in
  let options =
    {
      Bb.default_options with
      Bb.node_hook = Some hook;
      max_nodes = 1;
      metrics = Some m;
    }
  in
  let _, stats = Bb.solve ~options lp in
  Alcotest.(check (list string))
    "call order"
    [ "bounds after 0 solve(s)"; "lp after 1 solve(s)" ]
    (List.rev !calls);
  let d = stats.Bb.deductions in
  Alcotest.(check int) "hook calls" 2 d.Bb.hook_calls;
  Alcotest.(check int) "one give-up" 1 d.Bb.hook_give_ups;
  Alcotest.(check int) "nothing settled" 0 d.Bb.hook_pre_lp;
  Alcotest.(check bool)
    "root LP solved" true
    (Float.is_finite stats.Bb.root_obj)

(* Certification reads the LP verdict of the nodes it checks, so those
   nodes solve their LP before the hook may settle them: a hook that
   would settle the root on its bounds still lets a certified root
   solve and certify its LP, and settles it after. *)
let test_cert_root_before_hook () =
  let lp, _ = knapsack [| 10.; 6.; 4. |] [| 5.; 4.; 3. |] 8. in
  List.iter
    (fun (name, certify_level) ->
      let m = Ilp.Metrics.create () in
      let options =
        {
          Bb.default_options with
          Bb.node_hook = Some (fun _ ~is_fixed:_ -> Bb.Hook_prune);
          certify_level;
          metrics = Some m;
        }
      in
      match Bb.solve ~options lp with
      | Bb.Infeasible, stats ->
        let c = stats.Bb.certification in
        Alcotest.(check int) (name ^ ": one node") 1 stats.Bb.nodes;
        Alcotest.(check int) (name ^ ": root LP solved") 1 (lp_solves m);
        Alcotest.(check int) (name ^ ": root certified") 1 c.Bb.cert_certified;
        Alcotest.(check bool)
          (name ^ ": root certificate kept")
          true
          (Option.is_some c.Bb.root_certificate);
        Alcotest.(check int)
          (name ^ ": settled after its LP")
          0 stats.Bb.deductions.Bb.hook_pre_lp
      | o, _ -> Alcotest.failf "%s: unexpected %a" name Bb.pp_outcome o)
    [
      ("root", Bb.Cert_root);
      ("incumbents", Bb.Cert_incumbents);
      ("all", Bb.Cert_all);
    ]

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
          Alcotest.test_case "rejected integral point is no incumbent" `Quick
            test_rejected_integral_point;
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
          Alcotest.test_case "propagation runs once per node" `Quick
            test_propagation_per_node;
        ] );
      ( "search",
        [
          Alcotest.test_case "search tag by default" `Quick
            test_search_tag_by_default;
        ] );
      ( "hook",
        [
          Alcotest.test_case "settles before its LP" `Quick
            test_hook_settles_before_lp;
          Alcotest.test_case "settled root builds no engine" `Quick
            test_settled_root_builds_no_engine;
          Alcotest.test_case "give-up lets the LP run" `Quick
            test_hook_give_up_before_lp;
          Alcotest.test_case "certified root solves its LP first" `Quick
            test_cert_root_before_hook;
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
