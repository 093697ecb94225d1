(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, plus an ablation of the design choices called out in
   DESIGN.md and the static-analysis (lint) timings.

   Usage:
     dune exec bench/main.exe                 -- run everything
     dune exec bench/main.exe -- table3 figures
     dune exec bench/main.exe -- --quick all  (shorter time limits)

   Sections: table1 table2 table3 table4 figures (figure1..figure4)
   ablation lint. The paper's published numbers (175 MHz UltraSparc,
   lp_solve) are printed alongside for reference; absolute run times are
   not expected to match — the relative effects (tightening, variable
   selection) are the reproduction target. See EXPERIMENTS.md. Solver
   performance end to end and per layer is measured by perfbench/. *)

module G = Taskgraph.Graph
module Ex = Taskgraph.Examples
module C = Hls.Component
module Spec = Temporal.Spec
module F = Temporal.Formulation
module Solver = Temporal.Solver
module Sol = Temporal.Solution

let time_limit = ref 300.

let section title =
  Format.printf "@.============================================================@.";
  Format.printf "%s@." title;
  Format.printf "============================================================@."

(* Standard target-device parameters used across all experiments (the
   paper does not publish C and Ms; see DESIGN.md). *)
let capacity = 70
let scratch = 30

let spec_of ?(cap = capacity) ?(ms = scratch) g ~ams ~n ~l =
  Spec.make ~graph:g ~allocation:(C.ams ams) ~capacity:cap ~scratch:ms
    ~latency_relax:l ~num_partitions:n ()

type run_row = {
  vars : int;
  constrs : int;
  seconds : float;
  feasible : [ `Yes of int (* comm cost *) | `No | `Timeout ];
  nodes : int;
  limit : float;
}

let run_spec ?(options = F.tightened_options) ?(strategy = Temporal.Branching.Paper)
    ?(scheduler_completion = true) ?limit spec =
  let limit = match limit with Some l -> Float.min l !time_limit | None -> !time_limit in
  let vars = F.build ~options spec in
  let t0 = Unix.gettimeofday () in
  let report =
    Solver.solve ~strategy ~scheduler_completion ~time_limit:limit vars
  in
  let seconds = Unix.gettimeofday () -. t0 in
  let feasible =
    match report.Solver.outcome with
    | Solver.Feasible sol -> `Yes sol.Sol.comm_cost
    | Solver.Infeasible_model -> `No
    | Solver.Timed_out _ -> `Timeout
  in
  {
    vars = report.Solver.vars;
    constrs = report.Solver.constrs;
    seconds;
    feasible;
    nodes = report.Solver.stats.Ilp.Branch_bound.nodes;
    limit;
  }

let pp_feas ppf = function
  | `Yes cost -> Format.fprintf ppf "Yes (cost %d)" cost
  | `No -> Format.fprintf ppf "No"
  | `Timeout -> Format.fprintf ppf "timeout"

let pp_time ppf (r : run_row) =
  match r.feasible with
  | `Timeout -> Format.fprintf ppf ">%.0f" r.limit
  | `Yes _ | `No -> Format.fprintf ppf "%.2f" r.seconds

(* ------------------------------------------------------------------ *)
(* Tables 1 and 2: effect of the tightening constraints                 *)
(* ------------------------------------------------------------------ *)

(* The experiments of Tables 1-2: graph 1 at three (N, L) points and
   graph 3. Paper run times on the 175 MHz UltraSparc for reference. *)
let table12_rows =
  [
    (* graph no, N, A+M+S, L, paper t1, paper t2 *)
    (1, 3, (2, 2, 1), 1, ">7200", "86.2");
    (1, 2, (2, 2, 1), 2, ">7200", "4670.4");
    (1, 2, (2, 2, 1), 3, "953.3", "9.7");
    (3, 3, (2, 2, 1), 1, ">7200", ">9000");
  ]

let table12 ~tighten () =
  section
    (if tighten then
       "Table 2: tightened constraints (eqs. 28-32), solver-default branching"
     else "Table 1: basic formulation, solver-default branching");
  Format.printf
    " (pure-ILP runs, 30 s per-row budget: the paper reports >7200 s here)@.";
  Format.printf " %-6s %-3s %-7s %-3s | %-5s %-6s | %-10s | %-9s | %s@." "graph"
    "N" "A+M+S" "L" "Var" "Const" "runtime(s)" "paper(s)" "feasible";
  List.iter
    (fun (gno, n, ams, l, paper1, paper2) ->
      let g = Ex.paper_graph gno in
      let options = if tighten then F.tightened_options else F.base_options in
      (* "leave the variable selection to the solver": lp_solve's
         default, NODE_FIRSTSELECT, branches on the lowest-indexed
         fractional column, which is first-fractional; no scheduler
         completion — the pure ILP runs of Tables 1-2 *)
      (* pure-ILP runs: these are the paper's slow configurations, so a
         modest per-row budget communicates the ">limit" shape without
         hour-long reruns *)
      let r =
        run_spec ~options ~strategy:Temporal.Branching.First_fractional
          ~scheduler_completion:false ~limit:30.
          (spec_of g ~ams ~n ~l)
      in
      let a, m, s = ams in
      Format.printf " %-6d %-3d %d+%d+%d   %-3d | %-5d %-6d | %a | %-9s | %a@."
        gno n a m s l r.vars r.constrs pp_time r
        (if tighten then paper2 else paper1)
        pp_feas r.feasible)
    table12_rows

(* ------------------------------------------------------------------ *)
(* Table 3: latency / partition-count exploration on graph 1            *)
(* ------------------------------------------------------------------ *)

let table3 () =
  section
    "Table 3: graph 1, varying latency relaxation L and partition bound N\n\
     (tightened model, paper branching heuristic)";
  Format.printf " %-3s %-7s %-3s | %-5s %-6s | %-10s | %-9s | %s@." "N" "A+M+S"
    "L" "Var" "Const" "runtime(s)" "paper(s)" "feasible";
  List.iter
    (fun (n, l, paper, paper_feas) ->
      let r = run_spec (spec_of (Ex.paper_graph 1) ~ams:(2, 2, 1) ~n ~l) in
      Format.printf
        " %-3d 2+2+1   %-3d | %-5d %-6d | %a | %-9s | %a (paper: %s)@." n l
        r.vars r.constrs pp_time r paper pp_feas r.feasible paper_feas)
    [
      (3, 0, "1.72", "No");
      (3, 1, "8.96", "Yes");
      (2, 2, "9.91", "Yes");
      (2, 3, "8.86", "Yes");
      (* ours: one more relaxation step collapses the design onto a
         single configuration, the paper's row-4 narrative *)
      (2, 4, "-", "Yes (1 partition)");
    ]

(* ------------------------------------------------------------------ *)
(* Table 4: all six graphs at the published design points                *)
(* ------------------------------------------------------------------ *)

let table4_rows =
  [
    (* graph, N, A+M+S, L, paper runtime, paper feasible *)
    (1, 3, (2, 2, 1), 1, "8.96", "Yes");
    (2, 4, (3, 2, 2), 1, "51.13", "Yes");
    (3, 3, (2, 2, 2), 1, "267.7", "Yes");
    (4, 2, (2, 2, 2), 1, "240.64", "Yes");
    (4, 3, (2, 2, 2), 0, "167.23", "Yes");
    (5, 3, (2, 2, 2), 0, ".78", "No");
    (5, 2, (2, 2, 2), 1, "310.45", "Yes");
    (6, 3, (2, 2, 2), 0, "882.27", "Yes");
    (6, 2, (2, 2, 2), 1, "1763.27", "Yes");
  ]

let table4 () =
  section
    "Table 4: temporal partitioning results for graphs 1-6\n\
     (the model tpart solve builds: tightened Glover with step cuts,\n\
     paper branching heuristic, scheduler completion)";
  Format.printf
    " %-6s %-6s %-6s %-3s %-7s %-3s | %-5s %-6s | %-10s %-6s | %-9s | %s@."
    "graph" "tasks" "opers" "N" "A+M+S" "L" "Var" "Const" "runtime(s)"
    "nodes" "paper(s)" "feasible";
  List.iter
    (fun (gno, n, ams, l, paper, paper_feas) ->
      let g = Ex.paper_graph gno in
      let r =
        run_spec ~options:F.default_options ~limit:90. (spec_of g ~ams ~n ~l)
      in
      let a, m, s = ams in
      Format.printf
        " %-6d %-6d %-6d %-3d %d+%d+%d   %-3d | %-5d %-6d | %-10s %-6d | %-9s \
         | %a (paper: %s)@."
        gno (G.num_tasks g) (G.num_ops g) n a m s l r.vars r.constrs
        (Format.asprintf "%a" pp_time r)
        r.nodes paper pp_feas r.feasible paper_feas)
    table4_rows

(* ------------------------------------------------------------------ *)
(* Figures                                                              *)
(* ------------------------------------------------------------------ *)

let figure1 () =
  section "Figure 1: behavioral specification (graph 1)";
  let g = Ex.figure1 () in
  Format.printf "%a@.@." G.pp_summary g;
  Format.printf "%s@." (Taskgraph.Dot.task_graph g)

let figure2 () =
  section "Figure 2: flow of the temporal partitioning and synthesis system";
  let r =
    Temporal.Pipeline.run ~graph:(Ex.figure1 ())
      ~allocation:(C.ams (2, 2, 1))
      ~capacity ~scratch ~latency_relax:2 ~time_limit:!time_limit ()
  in
  List.iter (Format.printf "  %s@.") r.Temporal.Pipeline.trace

let figure3 () =
  section "Figure 3: memory constraints for 3 tasks mapped onto 3 partitions";
  let g = Ex.chain 3 in
  let spec = spec_of g ~ams:(1, 1, 0) ~n:3 ~l:2 in
  Format.printf "w-variable definitions (eq. 31 aggregated form):@.";
  List.iter
    (fun (_, _, _, line) -> Format.printf "  %s@." line)
    (F.explain_w spec);
  Format.printf "@.mapping t0->P1 t1->P2 t2->P3 activates (bandwidths %s):@."
    (String.concat ", "
       (List.map
          (fun (t1, t2, bw) -> Printf.sprintf "bw(%d,%d)=%d" t1 t2 bw)
          (G.task_edges g)));
  let part = [| 1; 2; 3 |] in
  List.iter
    (fun (t1, t2, bw) ->
      for p = 2 to 3 do
        if part.(t1) < p && p <= part.(t2) then
          Format.printf
            "  w_%d_%d_%d = 1 contributes %d to memory at partition %d@." p t1
            t2 bw p
      done)
    (G.task_edges g);
  Format.printf "  peak scratch demand: %d (Ms = %d)@."
    (Sol.memory_peak spec part) spec.Spec.scratch

let figure4 () =
  section
    "Figure 4: equations for w with 2 tasks and 4 partitions; the three\n\
     placements the tightening cuts (28)-(30) cut off";
  let g = Ex.chain 2 in
  let spec = spec_of g ~ams:(1, 1, 0) ~n:4 ~l:3 in
  List.iter
    (fun (p, t1, _t2, line) ->
      if p = 3 && t1 = 0 then Format.printf "  %s@." line)
    (F.explain_w spec);
  (* For each of the paper's three example placements, fix y and check
     the tightened LP alone forces w_3,0,1 = 0. *)
  let w3_value placement_t0 placement_t1 =
    let vars = F.build ~options:F.tightened_options spec in
    let lp = vars.Temporal.Vars.lp in
    Array.iteri
      (fun p0 v ->
        let value = if p0 + 1 = placement_t0 then 1. else 0. in
        Ilp.Lp.set_bounds lp v ~lb:value ~ub:value)
      vars.Temporal.Vars.y.(0);
    Array.iteri
      (fun p0 v ->
        let value = if p0 + 1 = placement_t1 then 1. else 0. in
        Ilp.Lp.set_bounds lp v ~lb:value ~ub:value)
      vars.Temporal.Vars.y.(1);
    (* maximize w_3,0,1 subject to the cuts: if even the max is 0, the
       cuts alone force it, exactly the paper's argument *)
    let w = Temporal.Vars.w_var vars 3 0 1 in
    Ilp.Lp.set_objective lp ~maximize:true [ (1., w) ];
    let r = Ilp.Simplex.solve lp in
    match r.Ilp.Simplex.status with
    | Ilp.Simplex.Optimal -> Some r.Ilp.Simplex.x.((w :> int))
    | _ -> None
  in
  List.iter
    (fun (p0, p1, cut) ->
      match w3_value p0 p1 with
      | Some v ->
        Format.printf "  t0@@P%d, t1@@P%d: max w_3 = %.0f (cut off by eq. %s)@."
          p0 p1 v cut
      | None -> Format.printf "  t0@@P%d, t1@@P%d: infeasible placement@." p0 p1)
    [ (1, 2, "29"); (3, 4, "28"); (2, 2, "30") ];
  match w3_value 1 3 with
  | Some v ->
    Format.printf "  t0@@P1, t1@@P3: max w_3 = %.0f (genuine crossing, w = 1)@."
      v
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)
(* ------------------------------------------------------------------ *)

let ablation () =
  section "Ablation: linearization tightness (root LP), cuts, branching";
  (* (a) Fortet vs Glover root relaxation value *)
  Format.printf "@.(a) Linearization: root LP objective (higher = tighter)@.";
  let abl_spec = spec_of (Ex.paper_graph 1) ~ams:(2, 2, 1) ~n:3 ~l:1 in
  List.iter
    (fun (name, linearization) ->
      let options = { F.tightened_options with F.linearization } in
      let vars = F.build ~options abl_spec in
      let r = Ilp.Simplex.solve vars.Temporal.Vars.lp in
      Format.printf "  %-8s: %d vars, root LP = %s@." name
        (Temporal.Vars.num_vars vars)
        (match r.Ilp.Simplex.status with
         | Ilp.Simplex.Optimal -> Printf.sprintf "%.4f" r.Ilp.Simplex.obj
         | s -> Format.asprintf "%a" Ilp.Simplex.pp_status s))
    [ ("Fortet", F.Fortet); ("Glover", F.Glover) ];
  (* (b) solver configurations on two design points *)
  let points =
    [ ("graph1 N=3 L=1", spec_of (Ex.paper_graph 1) ~ams:(2, 2, 1) ~n:3 ~l:1);
      ("graph2 N=4 L=1", spec_of (Ex.paper_graph 2) ~ams:(3, 2, 2) ~n:4 ~l:1) ]
  in
  let configs =
    [
      ("paper rule + hook + cuts", F.default_options, Temporal.Branching.Paper, true);
      ("paper rule + hook", F.tightened_options, Temporal.Branching.Paper, true);
      ("paper rule, no hook", F.tightened_options, Temporal.Branching.Paper, false);
      ("most-fractional + hook", F.tightened_options, Temporal.Branching.Most_fractional, true);
      ("first-fractional + hook", F.tightened_options, Temporal.Branching.First_fractional, true);
      ("untightened + hook", F.base_options, Temporal.Branching.Paper, true);
    ]
  in
  List.iter
    (fun (pname, spec) ->
      Format.printf "@.(b) %s@." pname;
      Format.printf "  %-26s | %-10s | %-7s | %s@." "configuration"
        "runtime(s)" "nodes" "result";
      List.iter
        (fun (cname, options, strategy, hook) ->
          let r =
            run_spec ~options ~strategy ~scheduler_completion:hook ~limit:45.
              spec
          in
          Format.printf "  %-26s | %a | %-7d | %a@." cname pp_time r r.nodes
            pp_feas r.feasible)
        configs)
    points

(* ------------------------------------------------------------------ *)
(* Lint: static analysis + formulation audit timings                    *)
(* ------------------------------------------------------------------ *)

let lint () =
  section
    "Lint: static model analysis and formulation audit per benchmark graph\n\
     (tightened model at the Table 4 design points; no solving)";
  Format.printf " %-6s %-3s %-3s | %-5s %-6s | %-11s %-11s | %-6s %-5s@."
    "graph" "N" "L" "Var" "Const" "analyze(ms)" "audit(ms)" "errors" "warns";
  List.iter
    (fun (gno, n, ams, l, _, _) ->
      let g = Ex.paper_graph gno in
      let spec = spec_of g ~ams ~n ~l in
      let options = F.tightened_options in
      let vars = F.build ~options spec in
      let t0 = Unix.gettimeofday () in
      let analysis = Ilp.Analyze.analyze vars.Temporal.Vars.lp in
      let t1 = Unix.gettimeofday () in
      let audit = Temporal.Audit.audit_vars ~options vars in
      let t2 = Unix.gettimeofday () in
      let errors =
        List.length (Ilp.Analyze.errors analysis)
        + List.length (Temporal.Audit.errors audit)
      in
      let warns =
        List.length
          (List.filter
             (fun (d : Ilp.Analyze.diagnostic) -> d.severity = Ilp.Analyze.Warn)
             analysis.Ilp.Analyze.diagnostics)
      in
      Format.printf " %-6d %-3d %-3d | %-5d %-6d | %-11.2f %-11.2f | %-6d %-5d@."
        gno n l
        (Temporal.Vars.num_vars vars)
        (Temporal.Vars.num_constrs vars)
        ((t1 -. t0) *. 1e3)
        ((t2 -. t1) *. 1e3)
        errors warns)
    table4_rows

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  if List.mem "--quick" args then time_limit := 30.;
  let args = List.filter (fun a -> a <> "--quick" && a <> "all") args in
  let all = args = [] in
  let want name = all || List.mem name args in
  let t0 = Unix.gettimeofday () in
  (* most informative sections first, so even an interrupted run leaves
     a useful bench_output.txt *)
  if want "table3" then table3 ();
  if want "figures" || want "figure1" then figure1 ();
  if want "figures" || want "figure3" then figure3 ();
  if want "figures" || want "figure4" then figure4 ();
  if want "figures" || want "figure2" then figure2 ();
  if want "table1" then table12 ~tighten:false ();
  if want "table2" then table12 ~tighten:true ();
  if want "table4" then table4 ();
  if want "ablation" then ablation ();
  if want "lint" then lint ();
  Format.printf "@.total bench wall-clock: %.1fs@." (Unix.gettimeofday () -. t0)
