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

(* Branch-and-bound completion hook. Eq. 14 depends only on y, so once
   the partition map is known, the exact backtracking scheduler either
   completes it into a full design (an incumbent) or proves that no
   completion exists. The hook's two calls per node split the work:

   - [Bounds], before the node LP: tasks whose y are all fixed form a
     partial partition map. Its counting bound and its scratch memory
     demand bound every completion in the subtree ([Maps.refuted]), so
     exceeding a budget prunes the subtree long before the other tasks
     are decided. Once every y is fixed, the scheduler's answer
     resolves the whole subtree either way, and the node closes with no
     LP.
   - [Lp_solution], after it: when the y are integral in the LP point
     but not all fixed, the map they spell is refuted or scheduled as
     an incumbent candidate; the subtree stays open. With every y fixed
     the [Bounds] call has decided all it can, so the scheduler never
     runs twice on one map at one node.

   Results are memoized per partition map. The scheduler gives up at
   [deadline] (absolute [Ilp.Mono] time), like on an exhausted backtrack
   budget; a call whose scheduler run gave up answers [Hook_gave_up]
   naming the map and the budget, so the search counts and traces it (a
   memoized give-up answers [Hook_none]). A map that gave up on the
   small budget is retried once on the thorough one, and never after
   that: propagation fixes every y at many nodes of one subtree, and
   each retry of a map the scheduler cannot decide costs its whole
   budget again. *)
let scheduler_hook ~deadline vars =
  let module Bb = Ilp.Branch_bound in
  let spec = vars.Vars.spec in
  let nt = Taskgraph.Graph.num_tasks spec.Spec.graph in
  let cache :
      ( int list,
        [ `Done of float array option | `Unknown | `Unknown_thorough ] )
      Hashtbl.t =
    Hashtbl.create 64
  in
  let tol = 1e-6 in
  (* Schedule the map [part]; [thorough] when every y is fixed, so the
     answer settles a subtree and is worth a larger backtrack budget.
     Such a map comes from [Bounds], which has already tried to refute
     it. *)
  let complete ~thorough part =
    let key = Array.to_list part in
    match Hashtbl.find_opt cache key with
    | Some (`Done _ as r) -> r
    | Some `Unknown_thorough -> `Unknown
    | Some `Unknown when not thorough -> `Unknown
    | Some `Unknown | None ->
      let r =
        if (not thorough) && Maps.refuted spec part then `Done None
        else
          let max_backtracks = if thorough then 5_000_000 else 300_000 in
          match
            Enumerate.schedule_for_partition ~max_backtracks ~deadline spec
              part
          with
          | `Schedule schedule ->
            `Done
              (Some
                 (Solution.to_vector vars
                    (Solution.of_schedule spec part schedule)))
          | `Infeasible -> `Done None
          | `Gave_up ->
            `Gave_up
              (Printf.sprintf "map %s (budget %d backtracks)"
                 (String.concat "," (List.map string_of_int key))
                 max_backtracks)
      in
      Hashtbl.replace cache key
        (match r with
         | `Gave_up _ -> if thorough then `Unknown_thorough else `Unknown
         | `Done _ as d -> d);
      r
  in
  fun point ~is_fixed ->
    let row_fixed row =
      Array.for_all (fun (v : Ilp.Lp.var) -> is_fixed (v :> int)) row
    in
    match point with
    | Bb.Bounds lb ->
      (* a task's partition, 0 while its y are not all fixed *)
      let partial =
        Array.map
          (fun row ->
            let p = ref 0 in
            if row_fixed row then
              Array.iteri
                (fun p0 (v : Ilp.Lp.var) ->
                  if lb.((v :> int)) > 0.5 then p := p0 + 1)
                row;
            !p)
          vars.Vars.y
      in
      if Maps.refuted spec partial then Bb.Hook_prune
      else if Array.for_all (fun p -> p > 0) partial then
        match complete ~thorough:true partial with
        | `Done (Some v) -> Bb.Hook_incumbent_and_prune v
        | `Done None -> Bb.Hook_prune
        | `Gave_up what -> Bb.Hook_gave_up what
        | `Unknown -> Bb.Hook_none
      else Bb.Hook_none
    | Bb.Lp_solution x ->
      let ys_integral =
        Array.for_all
          (Array.for_all (fun (v : Ilp.Lp.var) ->
               Bb.fractionality x.((v :> int)) <= tol))
          vars.Vars.y
      in
      if (not ys_integral) || Array.for_all row_fixed vars.Vars.y then
        Bb.Hook_none
      else
        let part = Array.init nt (Vars.y_value vars x) in
        match complete ~thorough:false part with
        | `Done (Some v) -> Bb.Hook_incumbent v
        | `Done None | `Unknown -> Bb.Hook_none
        | `Gave_up what -> Bb.Hook_gave_up what

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
let lint_or_fail vars =
  let issues = ref [] in
  let add s = issues := s :: !issues in
  let report = Ilp.Analyze.analyze vars.Vars.lp in
  List.iter
    (fun d -> add (Format.asprintf "%a" Ilp.Analyze.pp_diagnostic d))
    (Ilp.Analyze.errors report);
  let audit = Audit.audit_vars vars in
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
    ?(scheduler_completion = true) ?(presolve = true) ?(lint = false)
    ?(jobs = 1) ?(deterministic = false)
    ?(certify = Bb.Cert_off) ?(tracer = Ilp.Trace.disabled)
    ?metrics vars =
  let deadline = Ilp.Mono.now () +. time_limit in
  if lint then lint_or_fail vars;
  let options =
    {
      Bb.default_options with
      Bb.branch_rule = Some (Branching.rule strategy vars);
      time_limit;
      node_hook =
        (if scheduler_completion then Some (scheduler_hook ~deadline vars)
         else None);
      jobs;
      deterministic;
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
        (Bb.Infeasible, Bb.single_check cert ~seconds)
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
    validate_or_fail spec sol;
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
