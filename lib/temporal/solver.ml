module Bb = Ilp.Branch_bound

type outcome =
  | Feasible of Solution.t
  | Infeasible_model
  | Timed_out of Solution.t option

type report = {
  outcome : outcome;
  vars : int;
  constrs : int;
  stats : Bb.stats;
  objective : float option;
}

(* Branch-and-bound completion hook: once every y_tp is integral in the
   node relaxation, the objective is fully determined by the partition
   map (eq. 14 depends only on y), and the exact backtracking scheduler
   either completes it into a full design — an incumbent — or proves no
   completion exists. When the y variables are furthermore FIXED by the
   node's bounds, the whole subtree is resolved either way and can be
   pruned. Results are memoized per partition map. The scheduler gives
   up at [deadline] (absolute [Ilp.Mono] time), like on an exhausted
   backtrack budget; a call whose scheduler run gave up answers
   [Hook_gave_up], so the search counts it (a memoized give-up answers
   [Hook_none]). *)
let scheduler_hook ~deadline vars =
  let spec = vars.Vars.spec in
  let g = spec.Spec.graph in
  let nt = Taskgraph.Graph.num_tasks g in
  let cache : (int list, [ `Done of float array option | `Unknown ]) Hashtbl.t =
    Hashtbl.create 64
  in
  let tol = 1e-6 in
  fun ~lp_solution ~is_fixed ->
    (* Partial-map pruning: tasks whose y variables are all fixed form a
       partial partition map; the counting lower bound and the scratch
       memory demand of that partial map are lower bounds for every
       completion in this subtree, so exceeding the budgets prunes the
       subtree outright — long before the remaining tasks are decided. *)
    let partial =
      Array.mapi
        (fun _t row ->
          if Array.for_all (fun (v : Ilp.Lp.var) -> is_fixed (v :> int)) row
          then begin
            let p = ref 0 in
            Array.iteri
              (fun p0 (v : Ilp.Lp.var) ->
                if lp_solution.((v :> int)) > 0.5 then p := p0 + 1)
              row;
            !p
          end
          else 0)
        vars.Vars.y
    in
    let partial_prunes =
      (Array.exists (fun p -> p > 0) partial
       && Enumerate.steps_lower_bound spec partial > Spec.num_steps spec)
      ||
      (* scratch memory over the decided edges *)
      let np = spec.Spec.num_partitions in
      let exceeded = ref false in
      for p = 2 to np do
        let demand =
          List.fold_left
            (fun acc (t1, t2, bw) ->
              if
                partial.(t1) > 0 && partial.(t2) > 0
                && partial.(t1) < p
                && p <= partial.(t2)
              then acc + bw
              else acc)
            0
            (Taskgraph.Graph.task_edges g)
        in
        if demand > spec.Spec.scratch then exceeded := true
      done;
      !exceeded
    in
    if partial_prunes then Ilp.Branch_bound.Hook_prune
    else
    let ys_integral =
      Array.for_all
        (Array.for_all (fun (v : Ilp.Lp.var) ->
             Ilp.Branch_bound.fractionality lp_solution.((v :> int)) <= tol))
        vars.Vars.y
    in
    if not ys_integral then Ilp.Branch_bound.Hook_none
    else begin
      let part = Array.init nt (Vars.y_value vars lp_solution) in
      let all_y_fixed =
        Array.for_all
          (Array.for_all (fun (v : Ilp.Lp.var) -> is_fixed (v :> int)))
          vars.Vars.y
      in
      let completion =
        let key = Array.to_list part in
        match Hashtbl.find_opt cache key with
        | Some (`Done _ as r) -> r
        | Some `Unknown when not all_y_fixed -> `Unknown
        | Some `Unknown | None ->
          let ok_order =
            List.for_all
              (fun (t1, t2, _) -> part.(t1) <= part.(t2))
              (Taskgraph.Graph.task_edges g)
          and ok_mem =
            Solution.memory_peak spec part <= spec.Spec.scratch
          in
          let r =
            if not (ok_order && ok_mem) then `Done None
            else
              (* a fixed partition map is worth a thorough search: the
                 subtree is resolved either way *)
              let max_backtracks =
                if all_y_fixed then 5_000_000 else 300_000
              in
              match
                Enumerate.schedule_for_partition ~max_backtracks ~deadline
                  spec part
              with
              | `Schedule (op_step, op_fu) ->
                let module S = Set.Make (Int) in
                let used =
                  Array.fold_left (fun s p -> S.add p s) S.empty part
                in
                let sol =
                  {
                    Solution.partition_of = Array.copy part;
                    op_step;
                    op_fu;
                    comm_cost = Solution.comm_cost_of_partition spec part;
                    partitions_used = S.cardinal used;
                  }
                in
                `Done (Some (Solution.to_vector vars sol))
              | `Infeasible -> `Done None
              | `Gave_up -> `Gave_up
          in
          Hashtbl.replace cache key
            (match r with `Gave_up -> `Unknown | `Done _ as d -> d);
          r
      in
      match completion with
      | `Done (Some v) ->
        if all_y_fixed then Ilp.Branch_bound.Hook_incumbent_and_prune v
        else Ilp.Branch_bound.Hook_incumbent v
      | `Done None ->
        if all_y_fixed then Ilp.Branch_bound.Hook_prune
        else Ilp.Branch_bound.Hook_none
      | `Gave_up -> Ilp.Branch_bound.Hook_gave_up
      | `Unknown -> Ilp.Branch_bound.Hook_none
    end

let validate_or_fail spec sol =
  match Solution.validate spec sol with
  | Ok () -> ()
  | Error errs ->
    failwith
      (Printf.sprintf "Solver.solve: extracted solution invalid: %s"
         (String.concat "; " errs))

(* Strict mode: run the generic model analysis and the formulation audit
   before spending any solve time, and refuse to proceed past
   error-level findings. Warnings are left to [tpart analyze]. *)
let lint_or_fail ?options vars =
  let issues = ref [] in
  let add s = issues := s :: !issues in
  let report = Ilp.Analyze.analyze vars.Vars.lp in
  List.iter
    (fun d -> add (Format.asprintf "%a" Ilp.Analyze.pp_diagnostic d))
    (Ilp.Analyze.errors report);
  let audit = Audit.audit_vars ?options vars in
  List.iter
    (fun (f : Audit.finding) -> add (Printf.sprintf "error[%s]: %s" f.code f.message))
    (Audit.errors audit);
  match List.rev !issues with
  | [] -> ()
  | issues ->
    failwith
      (Printf.sprintf "Solver.solve: model failed lint (%d error%s):\n%s"
         (List.length issues)
         (if List.length issues = 1 then "" else "s")
         (String.concat "\n" issues))

let solve ?(strategy = Branching.Paper) ?(time_limit = Float.infinity)
    ?(max_nodes = max_int) ?(validate = true) ?(scheduler_completion = true)
    ?(presolve = true) ?(lint = false) ?lint_options
    ?(jobs = 1) ?(deterministic = false)
    ?(rc_fixing = false) ?(propagate = false) ?(certify = Bb.Cert_off) ?(tracer = Ilp.Trace.disabled)
    ?metrics vars =
  let deadline = Ilp.Mono.now () +. time_limit in
  if lint then lint_or_fail ?options:lint_options vars;
  let options =
    {
      Bb.default_options with
      Bb.branch_rule = Some (Branching.rule strategy vars);
      time_limit;
      max_nodes;
      integral_objective = true;
      node_hook =
        (if scheduler_completion then Some (scheduler_hook ~deadline vars)
         else None);
      jobs;
      deterministic;
      rc_fixing;
      propagate;
      certify_level = certify;
      tracer;
      metrics;
    }
  in
  (* Presolve drops redundant rows and tightens bounds without touching
     variable indices, so the branching rule and the completion hook
     (both index-based) remain valid; the reported model sizes stay
     those of the paper's formulation. *)
  let outcome, stats =
    if presolve then begin
      let tw = Ilp.Trace.main tracer in
      if Ilp.Trace.active tw then
        Ilp.Trace.emit tw (Ilp.Trace.Span_begin "presolve");
      let reduced = Ilp.Presolve.presolve vars.Vars.lp in
      if Ilp.Trace.active tw then
        Ilp.Trace.emit tw (Ilp.Trace.Span_end "presolve");
      match reduced with
      | Ilp.Presolve.Infeasible _ when certify <> Bb.Cert_off ->
        (* Presolve's proof is a bound-arithmetic argument on one row;
           for a checkable artifact, re-derive infeasibility as an
           exact Farkas certificate of the ORIGINAL model's LP
           relaxation (so its row indices need no mapping). *)
        let t = Ilp.Mono.now () in
        let _res, cert = Ilp.Certify.check_lp vars.Vars.lp in
        let seconds = Ilp.Mono.elapsed_since t in
        ( Bb.Infeasible,
          { Bb.empty_stats with Bb.certification = Bb.single_check cert ~seconds }
        )
      | Ilp.Presolve.Infeasible _ -> (Bb.Infeasible, Bb.empty_stats)
      | Ilp.Presolve.Reduced (reduced, pstats) ->
        let outcome, stats = Bb.solve ~options reduced in
        (* Certificates computed on the reduced model carry reduced-row
           indices; translate them back to the formulation's rows via
           the presolve row map. *)
        let row_map = pstats.Ilp.Presolve.row_map in
        let remap k = row_map.(k) in
        let certification =
          match stats.Bb.certification.Bb.root_certificate with
          | Some cert ->
            {
              stats.Bb.certification with
              Bb.root_certificate = Some (Ilp.Certify.map_rows remap cert);
            }
          | None -> stats.Bb.certification
        in
        (outcome, { stats with Bb.certification })
    end
    else Bb.solve ~options vars.Vars.lp
  in
  let spec = vars.Vars.spec in
  let mk_solution x =
    let sol = Solution.extract vars x in
    if validate then validate_or_fail spec sol;
    sol
  in
  let outcome, objective =
    match outcome with
    | Bb.Optimal { obj; x } -> (Feasible (mk_solution x), Some obj)
    | Bb.Infeasible -> (Infeasible_model, None)
    | Bb.Unbounded ->
      (* The objective is a sum of bounded 0-1 variables: unbounded is
         impossible for a well-formed model. *)
      failwith "Solver.solve: model reported unbounded"
    | Bb.Limit_reached { best = Some (obj, x); _ } ->
      (Timed_out (Some (mk_solution x)), Some obj)
    | Bb.Limit_reached { best = None; _ } -> (Timed_out None, None)
  in
  {
    outcome;
    vars = Vars.num_vars vars;
    constrs = Vars.num_constrs vars;
    stats;
    objective;
  }

let pp_outcome ppf = function
  | Feasible sol ->
    Format.fprintf ppf "optimal (comm cost %d, %d partitions)"
      sol.Solution.comm_cost sol.Solution.partitions_used
  | Infeasible_model -> Format.fprintf ppf "infeasible"
  | Timed_out (Some sol) ->
    Format.fprintf ppf "timed out (incumbent comm cost %d)"
      sol.Solution.comm_cost
  | Timed_out None -> Format.fprintf ppf "timed out (no incumbent)"
