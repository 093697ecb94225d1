module G = Taskgraph.Graph

type result = {
  spec : Spec.t;
  estimated_n : int option;
  heuristic : Hls.Estimate.segmentation option;
  report : Solver.report;
  trace : string list;
}

let run ?options ?strategy ?time_limit ?max_nodes ?num_partitions ?lint ?jobs
    ?deterministic ?rc_fixing ?propagate ?certify
    ?(tracer = Ilp.Trace.disabled) ?metrics
    ~graph ~allocation ?capacity ?alpha ?scratch ?latency_relax () =
  let tw = Ilp.Trace.main tracer in
  let span name f =
    if not (Ilp.Trace.active tw) then f ()
    else begin
      Ilp.Trace.emit tw (Ilp.Trace.Span_begin name);
      let r = f () in
      Ilp.Trace.emit tw (Ilp.Trace.Span_end name);
      r
    end
  in
  let trace = ref [] in
  let log fmt = Format.kasprintf (fun s -> trace := s :: !trace) fmt in
  log "input: %s" (Format.asprintf "%a" G.pp_summary graph);
  (* Stage 1: heuristic segment-count estimation (list scheduling). A
     throwaway spec provides the defaulted capacity/alpha and the
     ASAP/ALAP deadline for the step budget. *)
  let probe =
    Spec.make ~graph ~allocation ?capacity ?alpha ?scratch ?latency_relax
      ~num_partitions:1 ()
  in
  let constraints =
    {
      Hls.Estimate.capacity = probe.Spec.capacity;
      alpha = probe.Spec.alpha;
      max_steps = Spec.num_steps probe;
    }
  in
  let heuristic =
    span "estimate" (fun () ->
        Hls.Estimate.estimate graph allocation constraints)
  in
  let estimated_n = Option.map Hls.Estimate.num_segments heuristic in
  (match heuristic with
   | Some seg ->
     log "estimate: %d segment(s), greedy comm cost %d"
       (Hls.Estimate.num_segments seg) seg.Hls.Estimate.comm_cost
   | None -> log "estimate: no feasible greedy packing");
  let n =
    match (num_partitions, estimated_n) with
    | Some n, _ -> n
    | None, Some n -> n
    | None, None -> G.num_tasks graph
  in
  log "N = %d%s" n
    (match num_partitions with Some _ -> " (pinned)" | None -> " (estimated)");
  (* Stage 2: ASAP/ALAP preprocessing happens inside Spec.make. *)
  let spec =
    Spec.make ~graph ~allocation ?capacity ?alpha ?scratch ?latency_relax
      ~num_partitions:n ()
  in
  log "mobility: cp %d steps, %d with relaxation"
    spec.Spec.schedule.Hls.Schedule.cp_length (Spec.num_steps spec);
  (* Stage 3: formulation *)
  let vars = span "formulate" (fun () -> Formulation.build ?options spec) in
  log "model: %d variables, %d constraints" (Vars.num_vars vars)
    (Vars.num_constrs vars);
  (* Stage 4-5: solve, extract, validate *)
  let report =
    Solver.solve ?strategy ?time_limit ?max_nodes ?lint ?jobs ?deterministic
      ?rc_fixing ?propagate ?certify ~tracer ?metrics ?lint_options:options vars
  in
  log "solve: %s (%d nodes, %.2fs)"
    (Format.asprintf "%a" Solver.pp_outcome report.Solver.outcome)
    report.Solver.stats.Ilp.Branch_bound.nodes
    report.Solver.stats.Ilp.Branch_bound.elapsed;
  (let c = report.Solver.stats.Ilp.Branch_bound.certification in
   if c.Ilp.Branch_bound.cert_checked > 0 then
     log "certify: %s"
       (Format.asprintf "%a" Ilp.Branch_bound.pp_certification c));
  { spec; estimated_n; heuristic; report; trace = List.rev !trace }

let pp ppf r =
  Format.fprintf ppf "@[<v>";
  List.iter (fun line -> Format.fprintf ppf "%s@," line) r.trace;
  (match r.report.Solver.outcome with
   | Solver.Feasible sol | Solver.Timed_out (Some sol) ->
     Solution.pp r.spec ppf sol
   | Solver.Infeasible_model | Solver.Timed_out None -> ());
  Format.fprintf ppf "@]"
