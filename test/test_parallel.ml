(* End-to-end checks of the domain-parallel solver: the parallel search
   must report the same optimal objective (and the same infeasibility
   verdicts) as the sequential one on the example graphs, with and
   without the scheduler-completion hook, must find the exhaustive
   enumerator's optimum, and the parallel design-space sweep must equal
   the sequential sweep point for point. *)

module Ex = Taskgraph.Examples
module C = Hls.Component
module Spec = Temporal.Spec
module F = Temporal.Formulation
module Solver = Temporal.Solver
module Explore = Temporal.Explore

let mk ?(ams = (1, 1, 1)) ?(cap = 300) ?(ms = 100) ?(l = 1) ~n g =
  Spec.make ~graph:g ~allocation:(C.ams ams) ~capacity:cap ~scratch:ms
    ~latency_relax:l ~num_partitions:n ()

let objective_of (r : Solver.report) =
  match r.Solver.outcome with
  | Solver.Feasible sol -> `Cost sol.Temporal.Solution.comm_cost
  | Solver.Infeasible_model -> `Infeasible
  | Solver.Timed_out _ -> `Timeout

let pp_verdict = function
  | `Cost c -> Printf.sprintf "cost %d" c
  | `Infeasible -> "infeasible"
  | `Timeout -> "timeout"

let check_same_verdict name specs ~scheduler_completion =
  List.iter
    (fun spec ->
      let solve jobs =
        objective_of
          (Solver.solve ~scheduler_completion ~jobs (F.build spec))
      in
      let seq = solve 1 and par = solve 4 in
      if seq <> par then
        Alcotest.failf "%s: jobs=1 gives %s but jobs=4 gives %s" name
          (pp_verdict seq) (pp_verdict par))
    specs

let example_specs () =
  [
    mk ~n:2 (Ex.figure1 ());
    mk ~n:3 ~l:2 (Ex.figure1 ());
    mk ~n:2 (Ex.diamond ());
    mk ~ams:(2, 1, 1) ~n:3 ~l:0 (Ex.diamond ());
    mk ~n:2 ~cap:45 ~ms:2 (Ex.mixer ());
    (* an infeasible point: one partition, no latency slack, tiny fabric *)
    mk ~n:1 ~l:0 ~cap:45 ~ms:2 (Ex.mixer ());
  ]

let test_examples_with_hook () =
  check_same_verdict "with scheduler hook" (example_specs ())
    ~scheduler_completion:true

let test_examples_without_hook () =
  (* without the completion hook the tree is orders of magnitude larger,
     so this actually drives nodes through the worker domains *)
  check_same_verdict "without scheduler hook" (example_specs ())
    ~scheduler_completion:false

let test_deterministic_mode () =
  let spec = mk ~n:2 ~l:1 (Ex.figure1 ()) in
  let solve () =
    Solver.solve ~scheduler_completion:false ~jobs:3 ~deterministic:true
      (F.build spec)
  in
  let a = solve () and b = solve () in
  Alcotest.(check bool) "same verdict" true
    (objective_of a = objective_of b);
  Alcotest.(check int) "reproducible node count"
    a.Solver.stats.Ilp.Branch_bound.nodes
    b.Solver.stats.Ilp.Branch_bound.nodes

(* The verdict of the exhaustive enumerator, which shares no code with
   the ILP search. *)
let enumerated spec =
  match Temporal.Enumerate.optimal_cost spec with
  | Some c -> `Cost c
  | None -> `Infeasible

let test_deterministic_mode_with_deductions () =
  (* both deductions must stay inside the deterministic contract:
     propagation and reduced-cost fixes depend only on the node and the
     worker's own cutoff, and root re-fixing runs before the workers
     spawn — so repeated runs give identical node counts, deduction
     counts and verdicts. *)
  let spec = mk ~n:2 ~l:1 (Ex.figure1 ()) in
  let solve () =
    Solver.solve ~scheduler_completion:false ~jobs:3 ~deterministic:true
      (F.build spec)
  in
  let a = solve () and b = solve () in
  Alcotest.(check bool) "same verdict" true (objective_of a = objective_of b);
  Alcotest.(check int) "reproducible node count"
    a.Solver.stats.Ilp.Branch_bound.nodes
    b.Solver.stats.Ilp.Branch_bound.nodes;
  let d1 = Ilp.Metrics.counter_value a.Solver.stats.Ilp.Branch_bound.metrics
  and d2 = Ilp.Metrics.counter_value b.Solver.stats.Ilp.Branch_bound.metrics in
  Alcotest.(check int) "reproducible propagation fixings"
    (d1 C_prop_fixings) (d2 C_prop_fixings);
  Alcotest.(check int) "reproducible rc fixings" (d1 C_rc_fixed)
    (d2 C_rc_fixed);
  Alcotest.(check string) "enumerated verdict"
    (pp_verdict (enumerated spec))
    (pp_verdict (objective_of a))

let test_deductions_parallel_verdict () =
  (* hook off, across worker counts: pool-fed workers fix and propagate
     against the shared incumbent, and every count must reach the
     enumerated verdict *)
  let spec = mk ~n:2 ~l:1 (Ex.figure1 ()) in
  let expect = pp_verdict (enumerated spec) in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d" jobs)
        expect
        (pp_verdict
           (objective_of
              (Solver.solve ~scheduler_completion:false ~jobs (F.build spec)))))
    [ 1; 4 ]

let test_parallel_terminates_solved () =
  (* Regression for the "solved:false" anomaly: with no time pressure
     the parallel search must close the tree and report a proven
     verdict (not a limit) at every worker count. *)
  let spec = mk ~n:2 ~l:1 (Ex.figure1 ()) in
  List.iter
    (fun jobs ->
      let r =
        Solver.solve ~scheduler_completion:false ~jobs (F.build spec)
      in
      match r.Solver.outcome with
      | Solver.Feasible _ | Solver.Infeasible_model -> ()
      | Solver.Timed_out _ ->
        Alcotest.failf "jobs=%d: unlimited search reported a limit" jobs)
    [ 1; 2; 4; 8 ]

let test_worker_stats_shape () =
  let spec = mk ~n:2 ~l:1 (Ex.figure1 ()) in
  let r = Solver.solve ~jobs:3 (F.build spec) in
  let stats = r.Solver.stats in
  Alcotest.(check int) "one row per worker" 3
    (Array.length stats.Ilp.Branch_bound.workers);
  let worker_nodes =
    Array.fold_left
      (fun acc w -> acc + Ilp.Metrics.counter_value w C_nodes)
      0 stats.Ilp.Branch_bound.workers
  in
  Alcotest.(check bool) "worker nodes bounded by total" true
    (worker_nodes <= stats.Ilp.Branch_bound.nodes);
  let r1 = Solver.solve ~jobs:1 (F.build spec) in
  Alcotest.(check int) "sequential has no worker rows" 0
    (Array.length r1.Solver.stats.Ilp.Branch_bound.workers)

let test_sweep_parallel_equals_sequential () =
  let g = Ex.diamond () in
  let sweep jobs =
    Explore.sweep ~jobs ~graph:g ~allocation:(C.ams (1, 1, 1)) ~scratch:100
      ~latency_range:(0, 1) ~partition_range:(1, 2) ()
  in
  let strip p =
    ( p.Explore.latency_relax,
      p.Explore.num_partitions,
      match p.Explore.outcome with
      | `Optimal sol -> `Cost sol.Temporal.Solution.comm_cost
      | `Infeasible -> `Infeasible
      | `Timeout -> `Timeout )
  in
  let seq = List.map strip (sweep 1) and par = List.map strip (sweep 4) in
  Alcotest.(check int) "same number of points" (List.length seq)
    (List.length par);
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "same point, same verdict" true (a = b))
    seq par

let () =
  Alcotest.run "parallel"
    [
      ( "solver",
        [
          Alcotest.test_case "examples, hook on" `Quick
            test_examples_with_hook;
          Alcotest.test_case "examples, hook off" `Slow
            test_examples_without_hook;
          Alcotest.test_case "deterministic mode" `Quick
            test_deterministic_mode;
          Alcotest.test_case "deterministic mode, deductions on" `Quick
            test_deterministic_mode_with_deductions;
          Alcotest.test_case "worker stats shape" `Quick
            test_worker_stats_shape;
          Alcotest.test_case "deductions, parallel verdict" `Quick
            test_deductions_parallel_verdict;
          Alcotest.test_case "terminates solved" `Quick
            test_parallel_terminates_solved;
        ] );
      ( "explore",
        [
          Alcotest.test_case "sweep jobs=4 = jobs=1" `Slow
            test_sweep_parallel_equals_sequential;
        ] );
    ]
