(* Tests for the temporal-partitioning core: spec validation, variable
   management, the formulation and its options, solution extraction and
   validation, the exhaustive reference solver, and the cross-validation
   property that the ILP and the enumerator agree on optimal costs. *)

module G = Taskgraph.Graph
module Ex = Taskgraph.Examples
module C = Hls.Component
module Spec = Temporal.Spec
module Vars = Temporal.Vars
module F = Temporal.Formulation
module Sol = Temporal.Solution
module Solver = Temporal.Solver
module Enum = Temporal.Enumerate
module Maps = Temporal.Maps

let mk ?(ams = (1, 1, 1)) ?(cap = 300) ?(ms = 100) ?(l = 1) ~n g =
  Spec.make ~graph:g ~allocation:(C.ams ams) ~capacity:cap ~scratch:ms
    ~latency_relax:l ~num_partitions:n ()

(* ---------------- Spec ---------------- *)

let test_spec_validation () =
  let g = Ex.diamond () in
  Alcotest.check_raises "no coverage"
    (Invalid_argument "Spec.make: allocation does not cover the graph's op kinds")
    (fun () -> ignore (mk ~ams:(1, 0, 1) ~n:2 g));
  Alcotest.check_raises "bad alpha"
    (Invalid_argument "Spec.make: alpha not in (0,1]") (fun () ->
      ignore
        (Spec.make ~graph:g ~allocation:(C.ams (1, 1, 1)) ~alpha:1.5
           ~num_partitions:2 ()));
  Alcotest.check_raises "bad n" (Invalid_argument "Spec.make: num_partitions < 1")
    (fun () ->
      ignore (Spec.make ~graph:g ~allocation:(C.ams (1, 1, 1)) ~num_partitions:0 ()))

let test_spec_defaults_nonbinding () =
  let g = Ex.diamond () in
  let spec = Spec.make ~graph:g ~allocation:(C.ams (1, 1, 1)) ~num_partitions:1 () in
  (* default capacity admits the whole allocation *)
  Alcotest.(check bool) "capacity >= alpha * total" true
    (Float.of_int spec.Spec.capacity
     >= spec.Spec.alpha *. Float.of_int (C.total_fg spec.Spec.allocation))

let test_spec_fu_maps () =
  let g = Ex.diamond () in
  let spec = mk ~ams:(2, 1, 1) ~n:2 g in
  (* op 0 is an Add: two adder instances *)
  Alcotest.(check (list int)) "fu_of_op add" [ 0; 1 ] (Spec.fu_of_op spec 0);
  (* every op of Fu^-1(k) can execute on k *)
  for k = 0 to Spec.num_instances spec - 1 do
    List.iter
      (fun i -> Alcotest.(check bool) "consistent" true (List.mem k (Spec.fu_of_op spec i)))
      (Spec.ops_of_fu spec k)
  done

(* ---------------- Vars ---------------- *)

let test_vars_families () =
  let g = Ex.diamond () in
  let spec = mk ~ams:(1, 1, 1) ~n:3 g in
  let vars = F.build spec in
  Alcotest.(check int) "y shape" (G.num_tasks g) (Array.length vars.Vars.y);
  Alcotest.(check int) "y partitions" 3 (Array.length vars.Vars.y.(0));
  (* x entries respect windows and capabilities *)
  Array.iteri
    (fun i entries ->
      let lo, hi = Spec.window spec i in
      List.iter
        (fun (j, k, _) ->
          Alcotest.(check bool) "in window" true (j >= lo && j <= hi);
          Alcotest.(check bool) "capable" true (List.mem k (Spec.fu_of_op spec i)))
        entries)
    vars.Vars.x;
  (* w exists exactly for edges x partitions 2..N *)
  Alcotest.(check int) "w count"
    (List.length (G.task_edges g) * 2)
    (Hashtbl.length vars.Vars.w);
  Alcotest.check_raises "w_var bad" Not_found (fun () ->
      ignore (Vars.w_var vars 1 0 1))

let test_vars_o_only_meaningful () =
  let g = Ex.diamond () in
  let spec = mk ~ams:(1, 1, 1) ~n:2 g in
  let vars = F.build spec in
  (* task 2 ("right") has only a Mul: o exists only for the multiplier *)
  let insts = Spec.instances spec in
  Array.iteri
    (fun k o ->
      let expected = C.can_execute insts.(k).C.inst_kind G.Mul in
      Alcotest.(check bool) (Printf.sprintf "o right k%d" k) expected (o <> None))
    vars.Vars.o.(2)

(* ---------------- Formulation + Solver: hand-checked cases -------- *)

(* chain3 with capacity that admits only one FU kind per partition:
   t0:add t1:mul t2:add; the multiplier cannot share a partition with an
   adder, so N=2 is infeasible and N=3 costs bw(0,1) + bw(1,2) = 2. *)
let test_chain3_capacity_forced_split () =
  let g = Ex.chain 3 in
  let spec2 = mk ~ams:(1, 1, 0) ~cap:45 ~l:2 ~n:2 g in
  let r2 = Solver.solve (F.build spec2) in
  (match r2.Solver.outcome with
   | Solver.Infeasible_model -> ()
   | o -> Alcotest.failf "N=2 should be infeasible, got %a" Solver.pp_outcome o);
  let spec3 = mk ~ams:(1, 1, 0) ~cap:45 ~l:2 ~n:3 g in
  let r3 = Solver.solve (F.build spec3) in
  match r3.Solver.outcome with
  | Solver.Feasible sol ->
    Alcotest.(check int) "cost 2" 2 sol.Sol.comm_cost;
    Alcotest.(check int) "3 partitions" 3 sol.Sol.partitions_used
  | o -> Alcotest.failf "N=3 should be optimal, got %a" Solver.pp_outcome o

let test_diamond_memory_forces_merge () =
  (* generous capacity: everything fits in one partition -> cost 0 *)
  let g = Ex.diamond () in
  let spec = mk ~ams:(1, 1, 1) ~cap:300 ~l:2 ~n:2 g in
  match (Solver.solve (F.build spec)).Solver.outcome with
  | Solver.Feasible sol ->
    Alcotest.(check int) "cost 0" 0 sol.Sol.comm_cost;
    Alcotest.(check int) "single partition" 1 sol.Sol.partitions_used
  | o -> Alcotest.failf "unexpected %a" Solver.pp_outcome o

let test_latency_relaxation_monotone () =
  (* if (N, L) is feasible then (N, L+1) must be too. A timeout carrying
     a cost-0 incumbent is already proven optimal (the objective is a sum
     of non-negative terms). Both solves finish in seconds (4,947 and 587
     nodes), far inside the limit, so any other timeout fails. *)
  let g = Ex.figure1 () in
  let solve l =
    let spec = mk ~ams:(2, 2, 1) ~cap:120 ~ms:30 ~l ~n:2 g in
    match (Solver.solve ~time_limit:120. (F.build spec)).Solver.outcome with
    | Solver.Feasible sol -> `Opt sol.Sol.comm_cost
    | Solver.Timed_out (Some sol) when sol.Sol.comm_cost = 0 -> `Opt 0
    | Solver.Timed_out _ -> Alcotest.failf "L=%d undecided in 120 s" l
    | Solver.Infeasible_model -> `No
  in
  match (solve 2, solve 3) with
  | `Opt a, `Opt b ->
    (* more freedom can only keep or reduce the optimal cost *)
    Alcotest.(check bool) "cost monotone" true (b <= a)
  | `Opt _, `No -> Alcotest.fail "L=3 must stay feasible"
  | `No, _ -> Alcotest.fail "L=2 expected feasible"

let test_paper1_warm_dual_no_stall () =
  (* Graph 1 at N=2, L=4 (2+2+1, C=70, Ms=30) branches into a fully
     dual-degenerate warm node LP: every dual ratio is 0. Flipping the
     breakpoints tied at the final ratio used to swing the primal
     infeasibility by orders of magnitude, so the dual loop ran into its
     1000 + 30 m cap (31,554 pivots) and restarted cold. *)
  let spec = mk ~ams:(2, 2, 1) ~cap:70 ~ms:30 ~l:4 ~n:2 (Ex.paper_graph 1) in
  let r = Solver.solve (F.build spec) in
  (match r.Solver.outcome with
   | Solver.Feasible sol -> Alcotest.(check int) "cost 0" 0 sol.Sol.comm_cost
   | o -> Alcotest.failf "unexpected %a" Solver.pp_outcome o);
  let lp = r.Solver.stats.Ilp.Branch_bound.lp_stats in
  Alcotest.(check int) "dual stalls" 0 lp.Ilp.Simplex.dual_stalls;
  if lp.Ilp.Simplex.pivots > 2000 then
    Alcotest.failf "%d pivots, expected <= 2000" lp.Ilp.Simplex.pivots

(* One cost definition. Eq. 14 charges an edge's bandwidth once per
   partition boundary it spans, so the solver's objective is
   sum bw * (p(t2) - p(t1)), and so is the design's [comm_cost] (and
   [Enumerate]'s). Three tasks in a chain of partitions 1, 2, 3 with
   edges 0->1:5, 0->2:4, 1->2:3: the 0->2 edge spans two boundaries, so
   both read 5 + 2*4 + 3 = 16, where a cost charged once per crossing
   edge would read 12. *)
let test_objective_vs_design_cost () =
  let g =
    Taskgraph.Generator.generate
      (Taskgraph.Generator.default ~tasks:3 ~ops:3 ~seed:995017054)
  in
  let spec = mk ~cap:45 ~ms:100 ~l:2 ~n:3 g in
  let r = Solver.solve (F.build spec) in
  match (r.Solver.outcome, r.Solver.objective) with
  | Solver.Feasible sol, Some obj ->
    let p = sol.Sol.partition_of in
    let spanned =
      List.fold_left
        (fun acc (t1, t2, bw) -> acc + (bw * (p.(t2) - p.(t1))))
        0 (G.task_edges g)
    in
    Alcotest.(check (float 1e-6)) "objective is eq. 14" (Float.of_int spanned)
      obj;
    Alcotest.(check int) "objective" 16 spanned;
    Alcotest.(check int) "design cost" 16 sol.Sol.comm_cost
  | o, _ -> Alcotest.failf "unexpected %a" Solver.pp_outcome o

(* ---------------- Options equivalence ---------------- *)

let optimal_cost_with ?jobs options spec =
  match (Solver.solve ?jobs (F.build ~options spec)).Solver.outcome with
  | Solver.Feasible sol -> Some sol.Sol.comm_cost
  | Solver.Infeasible_model -> None
  | Solver.Timed_out _ -> Alcotest.fail "unexpected timeout"

let rand_small_spec ?n seed =
  let rng = Taskgraph.Prng.create seed in
  let tasks = Taskgraph.Prng.int_in rng 2 4 in
  let ops = tasks + Taskgraph.Prng.int_in rng 0 4 in
  let g =
    Taskgraph.Generator.generate (Taskgraph.Generator.default ~tasks ~ops ~seed)
  in
  let drawn = Taskgraph.Prng.int_in rng 1 3 in
  let n = Option.value n ~default:drawn in
  let l = Taskgraph.Prng.int_in rng 0 2 in
  let cap = List.nth [ 45; 60; 200 ] (Taskgraph.Prng.int rng 3) in
  let ms = List.nth [ 2; 5; 100 ] (Taskgraph.Prng.int rng 3) in
  mk ~ams:(1, 1, 1) ~cap ~ms ~l ~n g

let prop_fortet_glover_agree =
  QCheck.Test.make ~name:"Fortet and Glover linearizations agree" ~count:40
    QCheck.(int_bound 100_000)
    (fun seed ->
      let spec = rand_small_spec seed in
      let glover = optimal_cost_with F.default_options spec in
      let fortet =
        optimal_cost_with
          { F.default_options with F.linearization = F.Fortet }
          spec
      in
      glover = fortet)

let prop_tighten_preserves_optimum =
  QCheck.Test.make ~name:"tightening cuts preserve the optimum" ~count:40
    QCheck.(int_bound 100_000)
    (fun seed ->
      let spec = rand_small_spec seed in
      optimal_cost_with F.default_options spec
      = optimal_cost_with F.base_options spec)

let prop_literal_exclusion_agrees =
  QCheck.Test.make ~name:"literal eq-13 exclusion agrees with compact"
    ~count:30
    QCheck.(int_bound 100_000)
    (fun seed ->
      let spec = rand_small_spec seed in
      optimal_cost_with F.default_options spec
      = optimal_cost_with
          { F.default_options with F.literal_cs_exclusion = true }
          spec)

let prop_strategies_agree =
  QCheck.Test.make ~name:"branching strategies find the same optimum"
    ~count:30
    QCheck.(int_bound 100_000)
    (fun seed ->
      let spec = rand_small_spec seed in
      let solve strategy =
        match (Solver.solve ~strategy (F.build spec)).Solver.outcome with
        | Solver.Feasible sol -> Some sol.Sol.comm_cost
        | Solver.Infeasible_model -> None
        | Solver.Timed_out _ -> Alcotest.fail "timeout"
      in
      let a = solve Temporal.Branching.Paper in
      let b = solve Temporal.Branching.Most_fractional in
      let c = solve Temporal.Branching.First_fractional in
      a = b && b = c)

let prop_presolve_toggle_agrees =
  QCheck.Test.make ~name:"solver presolve on/off agrees" ~count:25
    QCheck.(int_bound 100_000)
    (fun seed ->
      let spec = rand_small_spec seed in
      let solve presolve =
        match
          (Solver.solve ~presolve (F.build spec)).Solver.outcome
        with
        | Solver.Feasible sol -> Some sol.Sol.comm_cost
        | Solver.Infeasible_model -> None
        | Solver.Timed_out _ -> Alcotest.fail "timeout"
      in
      solve true = solve false)

(* ---------------- ILP vs exhaustive enumeration ---------------- *)

(* Solved sequentially and on two worker domains: the parallel search,
   its deductions included, answers to the same independent oracle. *)
let prop_ilp_matches_enumeration =
  QCheck.Test.make ~name:"ILP optimum equals exhaustive enumeration"
    ~count:60
    QCheck.(int_bound 100_000)
    (fun seed ->
      let spec = rand_small_spec seed in
      let enum = Enum.optimal_cost spec in
      List.for_all
        (fun jobs -> optimal_cost_with ~jobs F.default_options spec = enum)
        [ 1; 2 ])

(* With one partition, presolve fixes every y at the root, so the
   completion hook settles the root on its bounds: the whole solve takes
   no LP, and the scheduler's answer is the true optimum. *)
let prop_one_partition_settled_at_root =
  QCheck.Test.make ~name:"N=1 specs are settled at the root without an LP"
    ~count:40
    QCheck.(int_bound 100_000)
    (fun seed ->
      let spec = rand_small_spec ~n:1 seed in
      let m = Ilp.Metrics.create () in
      let r = Solver.solve ~metrics:m (F.build spec) in
      let cost =
        match r.Solver.outcome with
        | Solver.Feasible sol -> Some sol.Sol.comm_cost
        | Solver.Infeasible_model -> None
        | Solver.Timed_out _ -> Alcotest.fail "unexpected timeout"
      in
      let s = r.Solver.stats in
      (* presolve may refute the model before any search *)
      s.Ilp.Branch_bound.nodes <= 1
      && (Ilp.Metrics.counter_value s.Ilp.Branch_bound.metrics Ilp.Metrics.C_hook_pre_lp)
         = s.Ilp.Branch_bound.nodes
      && Ilp.Metrics.counter_value (Ilp.Metrics.snapshot m) C_lp_solves = 0
      && cost = Enum.optimal_cost spec)

(* ---------------- Solution validation ---------------- *)

let solved_figure1 () =
  let spec = mk ~ams:(2, 2, 1) ~cap:300 ~ms:100 ~l:1 ~n:2 (Ex.figure1 ()) in
  match (Solver.solve (F.build spec)).Solver.outcome with
  | Solver.Feasible sol -> (spec, sol)
  | _ -> Alcotest.fail "figure1 relaxed spec must be feasible"

let test_validate_ok () =
  let spec, sol = solved_figure1 () in
  match Sol.validate spec sol with
  | Ok () -> ()
  | Error errs -> Alcotest.failf "unexpected: %s" (String.concat "; " errs)

let test_validate_catches_order_violation () =
  let spec, sol = solved_figure1 () in
  let bad = { sol with Sol.partition_of = Array.copy sol.Sol.partition_of } in
  (* put the sink task before its producers *)
  bad.Sol.partition_of.(4) <- 1;
  bad.Sol.partition_of.(0) <- 2;
  Alcotest.(check bool) "caught" true (Result.is_error (Sol.validate spec bad))

let test_validate_catches_double_booking () =
  let spec, sol = solved_figure1 () in
  let bad =
    { sol with Sol.op_step = Array.copy sol.Sol.op_step;
               Sol.op_fu = Array.copy sol.Sol.op_fu }
  in
  bad.Sol.op_step.(1) <- bad.Sol.op_step.(0);
  bad.Sol.op_fu.(1) <- bad.Sol.op_fu.(0);
  Alcotest.(check bool) "caught" true (Result.is_error (Sol.validate spec bad))

let test_validate_catches_window_violation () =
  let spec, sol = solved_figure1 () in
  let bad = { sol with Sol.op_step = Array.copy sol.Sol.op_step } in
  bad.Sol.op_step.(0) <- 99;
  Alcotest.(check bool) "caught" true (Result.is_error (Sol.validate spec bad))

let test_validate_catches_wrong_cost () =
  let spec, sol = solved_figure1 () in
  let bad = { sol with Sol.comm_cost = sol.Sol.comm_cost + 1 } in
  Alcotest.(check bool) "caught" true (Result.is_error (Sol.validate spec bad))

(* ---------------- Enumerate unit behavior ---------------- *)

let test_enumerate_chain_costs () =
  (* chain3, all fits: cost 0 with 1 partition *)
  let g = Ex.chain 3 in
  let spec = mk ~ams:(1, 1, 0) ~cap:300 ~l:2 ~n:2 g in
  Alcotest.(check (option int)) "fits" (Some 0) (Enum.optimal_cost spec);
  (* forced 3-way split costs 2 *)
  let spec3 = mk ~ams:(1, 1, 0) ~cap:45 ~l:2 ~n:3 g in
  Alcotest.(check (option int)) "split" (Some 2) (Enum.optimal_cost spec3)

let test_enumerate_guard () =
  let g = Ex.paper_graph 2 in
  let spec = mk ~ams:(2, 2, 1) ~cap:300 ~n:4 g in
  Alcotest.check_raises "guard"
    (Invalid_argument "Enumerate: assignment space too large") (fun () ->
      ignore (Enum.optimal_cost ~max_assignments:100 spec))

(* ---------------- Pipeline & misc ---------------- *)

let test_pipeline_trace_and_sizes () =
  let r =
    Temporal.Pipeline.run ~graph:(Ex.figure1 ())
      ~allocation:(C.ams (2, 2, 1))
      ~capacity:300 ~scratch:100 ~latency_relax:1 ~num_partitions:1 ()
  in
  Alcotest.(check bool) "trace" true (List.length r.Temporal.Pipeline.trace >= 4);
  Alcotest.(check bool) "vars > 0" true (r.Temporal.Pipeline.report.Solver.vars > 0);
  match r.Temporal.Pipeline.report.Solver.outcome with
  | Solver.Feasible sol -> Alcotest.(check int) "cost 0" 0 sol.Sol.comm_cost
  | o -> Alcotest.failf "unexpected %a" Solver.pp_outcome o

let test_pipeline_estimates_n () =
  (* capacity 70 admits at most one adder: at L = 0 the 22 ops do not
     list-schedule into the critical-path budget, so the estimator
     splits; by L = 3 a single greedy segment fits *)
  let run g l =
    (Temporal.Pipeline.run ~graph:g
       ~allocation:(C.ams (2, 2, 1))
       ~capacity:70 ~scratch:100 ~latency_relax:l ())
      .Temporal.Pipeline.estimated_n
  in
  (* the mixer has 10 adds against a 9-step budget on a single adder *)
  Alcotest.(check bool) "mixer splits at L=0" true
    (run (Ex.mixer ()) 0 <> Some 1);
  (* figure1's 13 adds serialize on the single affordable adder: a lone
     configuration exists only once the budget reaches 13 steps *)
  Alcotest.(check (option int)) "figure1 single at L=5" (Some 1)
    (run (Ex.figure1 ()) 5)

let test_to_vector_feasible () =
  (* a validated design mapped back onto the model variables must be a
     feasible point of every formulation variant *)
  let spec = mk ~ams:(1, 1, 1) ~cap:60 ~ms:8 ~l:2 ~n:3 (Ex.diamond ()) in
  List.iter
    (fun options ->
      let vars = F.build ~options spec in
      match (Solver.solve vars).Solver.outcome with
      | Solver.Feasible sol ->
        let v = Temporal.Solution.to_vector vars sol in
        (match Ilp.Feas_check.check vars.Vars.lp v with
         | [] -> ()
         | viols ->
           Alcotest.failf "to_vector infeasible: %s"
             (String.concat "; "
                (List.map
                   (Format.asprintf "%a"
                      (Ilp.Feas_check.pp_violation vars.Vars.lp))
                   viols)))
      | Solver.Infeasible_model -> ()
      | Solver.Timed_out _ -> Alcotest.fail "timeout")
    [ F.default_options; F.base_options;
      { F.default_options with F.linearization = F.Fortet };
      { F.default_options with F.literal_cs_exclusion = true } ]

let test_registers_analysis () =
  let spec, sol = solved_figure1 () in
  let usage = Temporal.Registers.analyze spec sol in
  (* some value is alive somewhere *)
  Alcotest.(check bool) "peak positive" true (usage.Temporal.Registers.peak > 0);
  (* no more live values than operations *)
  Alcotest.(check bool) "peak bounded" true
    (usage.Temporal.Registers.peak <= Taskgraph.Graph.num_ops spec.Spec.graph);
  (* a huge budget always passes, a zero budget never does here *)
  Alcotest.(check bool) "big budget ok" true
    (Result.is_ok (Temporal.Registers.check_capacity spec sol ~registers:1000));
  Alcotest.(check bool) "zero budget fails" true
    (Result.is_error (Temporal.Registers.check_capacity spec sol ~registers:0))

let test_registers_chain_is_one () =
  (* a pure chain in one partition keeps exactly one value alive *)
  let g = Ex.chain 5 in
  let spec = mk ~ams:(1, 1, 0) ~cap:300 ~l:1 ~n:1 g in
  match (Solver.solve (F.build spec)).Solver.outcome with
  | Solver.Feasible sol ->
    let usage = Temporal.Registers.analyze spec sol in
    Alcotest.(check int) "one register" 1 usage.Temporal.Registers.peak;
    Alcotest.(check int) "no spills" 0 usage.Temporal.Registers.spilled_values
  | o -> Alcotest.failf "unexpected %a" Solver.pp_outcome o

let test_explain_w () =
  let spec = mk ~ams:(1, 1, 1) ~n:3 (Ex.diamond ()) in
  let lines = F.explain_w spec in
  (* 4 edges x (N-1) boundaries *)
  Alcotest.(check int) "count" 8 (List.length lines);
  List.iter
    (fun (p, _, _, s) ->
      Alcotest.(check bool) "mentions w" true
        (String.length s > 10 && p >= 2 && p <= 3))
    lines


(* ---------------- multicycle / pipelined units ---------------- *)

let multicycle_spec ~pipelined ~n ~l g =
  let lib = C.default_library in
  let allocation =
    [ (C.find lib "add16", 1); (C.find lib "sub16", 1);
      (C.find lib (if pipelined then "mul16p2" else "mul16seq"), 1) ]
  in
  Spec.make ~graph:g ~allocation ~capacity:300 ~scratch:100 ~latency_relax:l
    ~num_partitions:n ()

let test_multicycle_ilp_matches_enum () =
  List.iter
    (fun pipelined ->
      List.iter
        (fun g ->
          let spec = multicycle_spec ~pipelined ~n:2 ~l:2 g in
          let ilp =
            match (Solver.solve (F.build spec)).Solver.outcome with
            | Solver.Feasible sol -> Some sol.Sol.comm_cost
            | Solver.Infeasible_model -> None
            | Solver.Timed_out _ -> Alcotest.fail "timeout"
          in
          Alcotest.(check (option int))
            (Printf.sprintf "%s pipelined=%b" (Taskgraph.Graph.name g)
               pipelined)
            (Enum.optimal_cost spec) ilp)
        [ Ex.diamond (); Ex.chain 4 ])
    [ true; false ]

let test_multicycle_validates () =
  (* non-pipelined multiplier: solution respects result latency *)
  let g = Ex.diamond () in
  let spec = multicycle_spec ~pipelined:false ~n:2 ~l:4 g in
  match (Solver.solve (F.build spec)).Solver.outcome with
  | Solver.Feasible sol ->
    (* op 1 (mul, latency 3) feeds op 2: issues at least 3 steps apart *)
    Alcotest.(check bool) "latency gap" true
      (sol.Sol.op_step.(2) >= sol.Sol.op_step.(1) + 3
       || sol.Sol.op_fu.(1) <> 2 (* unless bound elsewhere *));
    (match Sol.validate spec sol with
     | Ok () -> ()
     | Error e -> Alcotest.failf "invalid: %s" (String.concat "; " e))
  | o -> Alcotest.failf "unexpected %a" Solver.pp_outcome o

let test_multicycle_window_exhaustion_infeasible () =
  (* a 3-deep mul chain on a 3-cycle blocking multiplier needs 9 steps;
     with L = 0 the relaxed windows provide exactly the weighted cp, so
     it is feasible; shrinking to a unit-latency window model would not
     be — here we check the weighted window arithmetic is consistent *)
  let b = Taskgraph.Graph.builder () in
  let t = Taskgraph.Graph.add_task b () in
  let o1 = Taskgraph.Graph.add_op b ~task:t Taskgraph.Graph.Mul in
  let o2 = Taskgraph.Graph.add_op b ~task:t Taskgraph.Graph.Mul in
  let o3 = Taskgraph.Graph.add_op b ~task:t Taskgraph.Graph.Mul in
  Taskgraph.Graph.add_op_dep b o1 o2;
  Taskgraph.Graph.add_op_dep b o2 o3;
  let g = Taskgraph.Graph.build b in
  let spec = multicycle_spec ~pipelined:false ~n:1 ~l:0 g in
  Alcotest.(check int) "9 steps" 9 (Spec.num_steps spec);
  match (Solver.solve (F.build spec)).Solver.outcome with
  | Solver.Feasible sol ->
    Alcotest.(check int) "o3 issues at 7" 7 sol.Sol.op_step.(2)
  | o -> Alcotest.failf "unexpected %a" Solver.pp_outcome o


(* ---------------- report & explore ---------------- *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_report_contents () =
  let spec, sol = solved_figure1 () in
  let text = Temporal.Report.full spec sol in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (contains text needle))
    [ "design: figure1"; "P1:"; "registers"; "step"; "partition"; "add16#0" ]

let test_gantt_geometry () =
  let spec, sol = solved_figure1 () in
  let g = Temporal.Report.gantt spec sol in
  let lines = String.split_on_char '\n' g |> List.filter (( <> ) "") in
  (* header (2) + one row per instance *)
  Alcotest.(check int) "rows" (2 + Temporal.Spec.num_instances spec)
    (List.length lines);
  (* all rows equally wide *)
  match lines with
  | first :: rest ->
    List.iter
      (fun l ->
        Alcotest.(check int) "width" (String.length first) (String.length l))
      rest
  | [] -> Alcotest.fail "empty gantt"

let test_explore_sweep_and_pareto () =
  let points =
    Temporal.Explore.sweep ~time_limit_per_point:60.
      ~graph:(Ex.diamond ())
      ~allocation:(C.ams (1, 1, 1))
      ~capacity:60 ~scratch:16 ~latency_range:(1, 3) ~partition_range:(1, 2)
      ()
  in
  Alcotest.(check int) "grid size" 6 (List.length points);
  let front = Temporal.Explore.pareto points in
  Alcotest.(check bool) "non-empty frontier" true (front <> []);
  (* frontier is sorted-compatible: no point dominates another *)
  List.iter
    (fun p1 ->
      List.iter
        (fun p2 ->
          if p1 != p2 then
            match (p1.Temporal.Explore.outcome, p2.Temporal.Explore.outcome) with
            | `Optimal s1, `Optimal s2 ->
              let dom =
                p1.Temporal.Explore.latency_relax <= p2.Temporal.Explore.latency_relax
                && s1.Sol.comm_cost <= s2.Sol.comm_cost
                && (p1.Temporal.Explore.latency_relax < p2.Temporal.Explore.latency_relax
                    || s1.Sol.comm_cost < s2.Sol.comm_cost
                    || p1.Temporal.Explore.num_partitions < p2.Temporal.Explore.num_partitions)
              in
              Alcotest.(check bool) "no domination inside frontier" false dom
            | _ -> Alcotest.fail "frontier contains non-optimal point")
        front)
    front;
  (* costs weakly decrease along increasing L on the frontier *)
  let rec monotone = function
    | { Temporal.Explore.outcome = `Optimal a; _ }
      :: ({ Temporal.Explore.outcome = `Optimal b; _ } :: _ as rest) ->
      a.Sol.comm_cost >= b.Sol.comm_cost && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone frontier" true
    (monotone
       (List.sort
          (fun a b ->
            compare a.Temporal.Explore.latency_relax
              b.Temporal.Explore.latency_relax)
          front))


(* ---------------- counting lower bound ---------------- *)

let test_lower_bound_all_in_one () =
  (* figure1 all-in-one at C=70: only 1A+1M+1S covers -> 13 adds serialize *)
  let spec = mk ~ams:(2, 2, 1) ~cap:70 ~ms:30 ~l:0 ~n:3 (Ex.figure1 ()) in
  let lb = Maps.steps_lower_bound spec [| 1; 1; 1; 1; 1 |] in
  Alcotest.(check int) "13 adds" 13 lb;
  Alcotest.(check bool) "refutes L=0" true (lb > Spec.num_steps spec)

let test_lower_bound_uncoverable () =
  (* a partition with a mul but no affordable multiplier *)
  let spec = mk ~ams:(1, 1, 0) ~cap:30 ~ms:30 ~l:0 ~n:2 (Ex.chain 3) in
  Alcotest.(check int) "max_int" max_int
    (Maps.steps_lower_bound spec [| 1; 1; 2 |])

let test_lower_bound_never_exceeds_schedulable () =
  (* soundness: whenever the exact scheduler finds a schedule, the bound
     cannot exceed the step budget; the budget keeps the scheduler from
     searching a refuted map for long *)
  let specs =
    [ mk ~ams:(1, 1, 1) ~cap:200 ~l:2 ~n:2 (Ex.diamond ());
      mk ~ams:(2, 2, 1) ~cap:70 ~ms:30 ~l:1 ~n:3 (Ex.figure1 ()) ]
  in
  List.iter
    (fun spec ->
      let nt = Taskgraph.Graph.num_tasks spec.Spec.graph in
      (* try a handful of order-respecting maps *)
      let order = Taskgraph.Topo.task_order spec.Spec.graph in
      List.iter
        (fun cut ->
          let part = Array.make nt 1 in
          List.iteri
            (fun idx t -> if idx >= cut then part.(t) <- 2)
            order;
          match
            Enum.schedule_for_partition ~max_backtracks:1_000_000 spec part
          with
          | `Schedule _ ->
            Alcotest.(check bool) "bound sound" true
              (Maps.steps_lower_bound spec part <= Spec.num_steps spec)
          | `Infeasible | `Gave_up -> ())
        [ 0; 1; 2; nt - 1 ])
    specs

(* Eq. 2 and eq. 3 on a full map, written out here apart from [Maps]
   for the properties below to check against. *)
let order_ok spec part =
  List.for_all (fun (t1, t2, _) -> part.(t1) <= part.(t2))
    (G.task_edges spec.Spec.graph)

let memory_ok spec part =
  List.for_all
    (fun p ->
      List.fold_left
        (fun acc (t1, t2, bw) ->
          if part.(t1) < p && p <= part.(t2) then acc + bw else acc)
        0
        (G.task_edges spec.Spec.graph)
      <= spec.Spec.scratch)
    (List.init (spec.Spec.num_partitions - 1) (fun p -> p + 2))

(* Every full map over [nt] tasks and partitions [1..np], as lists. *)
let all_maps ~nt ~np =
  List.fold_left
    (fun maps _ ->
      List.concat_map
        (fun m -> List.init np (fun p -> (p + 1) :: m))
        maps)
    [ [] ] (List.init nt Fun.id)

let prop_fold_visits_ordered_maps =
  QCheck.Test.make ~name:"Maps.fold visits each order-respecting map once"
    ~count:60
    QCheck.(int_bound 100_000)
    (fun seed ->
      let spec = rand_small_spec seed in
      let visited =
        Maps.fold ~max_assignments:max_int spec
          (fun part acc -> Array.to_list part :: acc)
          []
      in
      let ordered =
        List.filter
          (fun m -> order_ok spec (Array.of_list m))
          (all_maps
             ~nt:(G.num_tasks spec.Spec.graph)
             ~np:spec.Spec.num_partitions)
      in
      List.length (List.sort_uniq compare visited) = List.length visited
      && List.sort compare visited = List.sort compare ordered)

(* A partial map (tasks at 0 undecided) that [Maps.refuted] rejects has
   no completion that is a design: none that respects eq. 2, fits the
   scratch memory and has a schedule. *)
let prop_partial_refutations_sound =
  QCheck.Test.make ~name:"partial-map refutations are sound" ~count:200
    QCheck.(pair (int_bound 100_000) (int_bound 100_000))
    (fun (seed, map_seed) ->
      let spec = rand_small_spec seed in
      let nt = G.num_tasks spec.Spec.graph
      and np = spec.Spec.num_partitions in
      let rng = Taskgraph.Prng.create map_seed in
      let partial = Array.init nt (fun _ -> Taskgraph.Prng.int_in rng 0 np) in
      (not (Maps.refuted spec partial))
      || List.for_all
           (fun m ->
             let part = Array.of_list m in
             Array.exists2 (fun p q -> p > 0 && p <> q) partial part
             || (not (order_ok spec part))
             || (not (memory_ok spec part))
             ||
             match
               Enum.schedule_for_partition ~max_backtracks:100_000 spec part
             with
             | `Schedule _ -> false
             | `Infeasible | `Gave_up -> true)
           (all_maps ~nt ~np))

(* ---------------- exact completion scheduler ---------------- *)

(* Graph 1 at its paper allocation (2+2+1), C = 70, Ms = 30, N = 2,
   L = 4: the completion hook schedules every task in partition 1. *)
let paper1_n2l4 () =
  ( mk ~ams:(2, 2, 1) ~cap:70 ~ms:30 ~l:4 ~n:2 (Ex.paper_graph 1),
    [| 1; 1; 1; 1; 1 |] )

(* The scheduler's visit order (ops by ALAP, steps ascending, units by
   instance id) fixes the first schedule found and the backtracks spent
   reaching it; any change to either moves the hook's give-up boundary
   and with it, possibly, the incumbents. *)
let test_scheduler_order_pinned () =
  let spec, part = paper1_n2l4 () in
  let backtracks = 29_955 in
  (match Enum.schedule_for_partition ~max_backtracks:backtracks spec part with
   | `Schedule (step, fu) ->
     Alcotest.(check (array int)) "op_step"
       [| 1; 2; 10; 2; 3; 4; 5; 1; 6; 3; 7; 7; 11; 4; 5; 8; 6; 9; 9; 13; 10; 12 |]
       step;
     Alcotest.(check (array int)) "op_fu"
       [| 2; 2; 0; 0; 2; 0; 2; 0; 2; 0; 0; 2; 0; 2; 0; 0; 0; 4; 0; 0; 4; 0 |]
       fu
   | `Infeasible | `Gave_up -> Alcotest.fail "expected a schedule");
  match
    Enum.schedule_for_partition ~max_backtracks:(backtracks - 1) spec part
  with
  | `Gave_up -> ()
  | `Schedule _ | `Infeasible -> Alcotest.fail "expected a give-up"

let test_scheduler_deadline () =
  let spec, part = paper1_n2l4 () in
  (* the map needs thousands of backtracks, so the clock is read *)
  (match
     Enum.schedule_for_partition ~deadline:(Ilp.Mono.now () -. 1.) spec part
   with
   | `Gave_up -> ()
   | `Schedule _ | `Infeasible -> Alcotest.fail "expected a give-up");
  match Enum.schedule_for_partition spec part with
  | `Schedule _ -> ()
  | `Infeasible | `Gave_up -> Alcotest.fail "expected a schedule"

(* A completion-hook call past its deadline gives up, and the search
   counts that give-up exactly once. The hook sees the all-in-one map
   of [paper1_n2l4] (thousands of backtracks, so the clock is read)
   with every y fixed, on the node's bounds; neither its call after the
   LP nor a later call on another node's bounds runs the scheduler on
   that map again. *)
let test_hook_give_up_counted () =
  let spec, part = paper1_n2l4 () in
  let vars = F.build spec in
  let lp = vars.Vars.lp in
  let sol = Array.make (Ilp.Lp.num_vars lp) 0. in
  Array.iteri
    (fun t row ->
      Array.iteri
        (fun p (v : Ilp.Lp.var) -> if part.(t) = p + 1 then sol.((v :> int)) <- 1.)
        row)
    vars.Vars.y;
  let past_deadline () =
    Solver.scheduler_hook ~deadline:(Ilp.Mono.now () -. 1.) vars
  in
  let on_bounds hook = hook (Ilp.Branch_bound.Bounds sol) ~is_fixed:(fun _ -> true) in
  let hook = past_deadline () in
  (match on_bounds hook with
   | Ilp.Branch_bound.Hook_gave_up what ->
     Alcotest.(check string) "names the map and the budget"
       (Printf.sprintf "map %s (budget 5000000 backtracks)"
          (String.concat "," (Array.to_list (Array.map string_of_int part))))
       what
   | _ -> Alcotest.fail "expected a give-up");
  (* after the LP, a map whose y are all fixed is not scheduled again:
     a second run would give up again *)
  (match hook (Ilp.Branch_bound.Lp_solution sol) ~is_fixed:(fun _ -> true) with
   | Ilp.Branch_bound.Hook_none -> ()
   | _ -> Alcotest.fail "expected no second scheduler run");
  (* nor on the bounds of another node with the same map *)
  (match on_bounds hook with
   | Ilp.Branch_bound.Hook_none -> ()
   | _ -> Alcotest.fail "expected no thorough retry");
  let hook = past_deadline () in
  let calls = ref 0 in
  let node_hook _ ~is_fixed:_ =
    incr calls;
    if !calls = 1 then on_bounds hook else Ilp.Branch_bound.Hook_none
  in
  let _, stats =
    Ilp.Branch_bound.solve
      ~options:
        {
          Ilp.Branch_bound.default_options with
          node_hook = Some node_hook;
          max_nodes = 3;
        }
      lp
  in
  let d = Ilp.Metrics.counter_value stats.Ilp.Branch_bound.metrics in
  Alcotest.(check int) "hook calls" !calls (d C_hook_calls);
  Alcotest.(check int) "one give-up" 1 (d C_hook_give_ups)

(* Allocations that mix shared, pipelined multicycle and blocking
   multicycle units, so every cached table has entries to get wrong. *)
let rand_mixed_spec seed =
  let rng = Taskgraph.Prng.create seed in
  let tasks = Taskgraph.Prng.int_in rng 2 4 in
  let ops = tasks + Taskgraph.Prng.int_in rng 0 4 in
  let g =
    Taskgraph.Generator.generate (Taskgraph.Generator.default ~tasks ~ops ~seed)
  in
  let unit name = C.find C.default_library name in
  let count () = Taskgraph.Prng.int_in rng 1 2 in
  let allocation =
    match Taskgraph.Prng.int rng 3 with
    | 0 ->
      [ (unit "add16", count ()); (unit "mul16", count ());
        (unit "sub16", count ()) ]
    | 1 -> [ (unit "alu16", count ()); (unit "mul16p2", count ()) ]
    | _ ->
      [ (unit "add16", 1); (unit "mul16seq", count ()); (unit "alu16", 1);
        (unit "mul16", 1) ]
  in
  Spec.make ~graph:g ~allocation
    ~capacity:(List.nth [ 45; 90; 300 ] (Taskgraph.Prng.int rng 3))
    ~scratch:(List.nth [ 2; 5; 100 ] (Taskgraph.Prng.int rng 3))
    ~latency_relax:(Taskgraph.Prng.int_in rng 0 2)
    ~num_partitions:(Taskgraph.Prng.int_in rng 1 3)
    ()

let prop_spec_tables_and_schedules =
  QCheck.Test.make
    ~name:"spec tables match the allocation; schedules validate" ~count:60
    QCheck.(int_bound 100_000)
    (fun seed ->
      let spec = rand_mixed_spec seed in
      let g = spec.Spec.graph in
      let insts = C.instances spec.Spec.allocation in
      let nf = Array.length insts in
      let tables_ok =
        Spec.instances spec = insts
        && Spec.num_instances spec = nf
        && List.for_all
             (fun k ->
               let kind = insts.(k).C.inst_kind in
               Spec.instance_latency spec k = kind.C.latency
               && Spec.instance_pipelined spec k = kind.C.pipelined
               && Spec.busy_span spec k
                  = (if kind.C.pipelined then 1 else kind.C.latency)
               && Spec.fg_of_instance spec k = kind.C.fg)
             (List.init nf Fun.id)
        && List.for_all
             (fun i ->
               Spec.fu_of_op spec i
               = List.filter
                   (fun k -> C.can_execute insts.(k).C.inst_kind (G.op_kind g i))
                   (List.init nf Fun.id))
             (List.init (G.num_ops g) Fun.id)
        && List.for_all
             (fun (fu, n) ->
               n
               = Array.fold_left
                   (fun m inst ->
                     if inst.C.inst_kind.C.fu_name = fu.C.fu_name then m + 1
                     else m)
                   0 insts)
             (Spec.unit_groups spec)
        && List.fold_left (fun m (_, n) -> m + n) 0 (Spec.unit_groups spec) = nf
      in
      (* every task-to-partition map *)
      let nt = G.num_tasks g and np = spec.Spec.num_partitions in
      let part = Array.make nt 1 in
      let schedules_ok = ref true in
      let rec each t =
        if t = nt then begin
          (* the scheduler sees the map alone: order, memory and the
             counting bound are the caller's to check *)
          if
            order_ok spec part && memory_ok spec part
            && Maps.steps_lower_bound spec part <= Spec.num_steps spec
          then
            match
              Enum.schedule_for_partition ~max_backtracks:100_000 spec part
            with
            | `Schedule schedule ->
              let sol = Sol.of_schedule spec (Array.copy part) schedule in
              if Sol.validate spec sol <> Ok () then schedules_ok := false
            | `Infeasible | `Gave_up -> ()
        end
        else
          for p = 1 to np do
            part.(t) <- p;
            each (t + 1)
          done
      in
      each 0;
      tables_ok && !schedules_ok)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "temporal"
    [
      ( "spec",
        [
          Alcotest.test_case "validation" `Quick test_spec_validation;
          Alcotest.test_case "default capacity" `Quick
            test_spec_defaults_nonbinding;
          Alcotest.test_case "fu maps" `Quick test_spec_fu_maps;
        ] );
      ( "vars",
        [
          Alcotest.test_case "families" `Quick test_vars_families;
          Alcotest.test_case "o meaningful only" `Quick
            test_vars_o_only_meaningful;
        ] );
      ( "solver",
        [
          Alcotest.test_case "chain3 forced split" `Quick
            test_chain3_capacity_forced_split;
          Alcotest.test_case "diamond single partition" `Quick
            test_diamond_memory_forces_merge;
          Alcotest.test_case "latency monotone" `Slow
            test_latency_relaxation_monotone;
          Alcotest.test_case "paper1 warm dual no stall" `Quick
            test_paper1_warm_dual_no_stall;
          Alcotest.test_case "objective vs design cost" `Quick
            test_objective_vs_design_cost;
        ] );
      ( "equivalences",
        [
          qt prop_fortet_glover_agree;
          qt prop_tighten_preserves_optimum;
          qt prop_literal_exclusion_agrees;
          qt prop_strategies_agree;
          qt prop_presolve_toggle_agrees;
        ] );
      ( "cross-validation",
        [
          qt prop_ilp_matches_enumeration;
          qt prop_one_partition_settled_at_root;
        ] );
      ( "solution",
        [
          Alcotest.test_case "validate ok" `Quick test_validate_ok;
          Alcotest.test_case "order violation" `Quick
            test_validate_catches_order_violation;
          Alcotest.test_case "double booking" `Quick
            test_validate_catches_double_booking;
          Alcotest.test_case "window violation" `Quick
            test_validate_catches_window_violation;
          Alcotest.test_case "wrong cost" `Quick test_validate_catches_wrong_cost;
        ] );
      ( "enumerate",
        [
          Alcotest.test_case "chain costs" `Quick test_enumerate_chain_costs;
          Alcotest.test_case "guard" `Quick test_enumerate_guard;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "trace and sizes" `Quick
            test_pipeline_trace_and_sizes;
          Alcotest.test_case "estimates n" `Quick test_pipeline_estimates_n;
          Alcotest.test_case "explain_w" `Quick test_explain_w;
        ] );
      ( "multicycle",
        [
          Alcotest.test_case "ilp matches enum" `Slow
            test_multicycle_ilp_matches_enum;
          Alcotest.test_case "validates" `Quick test_multicycle_validates;
          Alcotest.test_case "weighted windows" `Quick
            test_multicycle_window_exhaustion_infeasible;
        ] );
      ( "report-explore",
        [
          Alcotest.test_case "report contents" `Quick test_report_contents;
          Alcotest.test_case "gantt geometry" `Quick test_gantt_geometry;
          Alcotest.test_case "explore sweep/pareto" `Slow
            test_explore_sweep_and_pareto;
        ] );
      ( "lower-bound",
        [
          Alcotest.test_case "all-in-one" `Quick test_lower_bound_all_in_one;
          Alcotest.test_case "uncoverable" `Quick test_lower_bound_uncoverable;
          Alcotest.test_case "sound vs scheduler" `Quick
            test_lower_bound_never_exceeds_schedulable;
          qt prop_fold_visits_ordered_maps;
          qt prop_partial_refutations_sound;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "paper1 search order pinned" `Quick
            test_scheduler_order_pinned;
          Alcotest.test_case "expired deadline gives up" `Quick
            test_scheduler_deadline;
          Alcotest.test_case "hook give-up counted" `Quick
            test_hook_give_up_counted;
          qt prop_spec_tables_and_schedules;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "to_vector feasible" `Quick
            test_to_vector_feasible;
          Alcotest.test_case "registers analysis" `Quick
            test_registers_analysis;
          Alcotest.test_case "registers chain" `Quick
            test_registers_chain_is_one;
        ] );
    ]
