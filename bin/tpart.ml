(* tpart — command-line front end for the temporal partitioning and
   synthesis system.

   Subcommands:
     tpart graph     print a specification summary (optionally DOT)
     tpart estimate  run the greedy list-scheduling segment estimator
     tpart solve     run the exact ILP flow and print the design
     tpart analyze   static model analysis and formulation audit
     tpart trace     inspect solver traces recorded by solve --trace *)

open Cmdliner

(* ---------------- graph selection ---------------- *)

let parse_graph s =
  let fail () =
    Error
      (`Msg
        (Printf.sprintf
           "unknown graph %S (expected paper:1..6, figure1, diamond, mixer, \
            chain:N, random:TASKS,OPS,SEED, file:PATH)"
           s))
  in
  match String.split_on_char ':' s with
  | [ "figure1" ] -> Ok (Taskgraph.Examples.figure1 ())
  | [ "diamond" ] -> Ok (Taskgraph.Examples.diamond ())
  | [ "mixer" ] -> Ok (Taskgraph.Examples.mixer ())
  | [ "paper"; n ] -> (
    match int_of_string_opt n with
    | Some n when n >= 1 && n <= 6 -> Ok (Taskgraph.Examples.paper_graph n)
    | Some _ | None -> fail ())
  | [ "chain"; n ] -> (
    match int_of_string_opt n with
    | Some n when n >= 1 -> Ok (Taskgraph.Examples.chain n)
    | Some _ | None -> fail ())
  | "file" :: rest -> (
    let path = String.concat ":" rest in
    try Ok (Taskgraph.Serialize.load path) with
    | Sys_error m | Invalid_argument m -> Error (`Msg m))
  | [ "random"; spec ] -> (
    match List.map int_of_string_opt (String.split_on_char ',' spec) with
    | [ Some tasks; Some ops; Some seed ] -> (
      try
        Ok (Taskgraph.Generator.generate (Taskgraph.Generator.default ~tasks ~ops ~seed))
      with Invalid_argument m -> Error (`Msg m))
    | _ -> fail ())
  | _ -> fail ()

let graph_conv = Arg.conv (parse_graph, fun ppf g -> Format.fprintf ppf "%s" (Taskgraph.Graph.name g))

let graph_arg =
  Arg.(
    required
    & opt (some graph_conv) None
    & info [ "g"; "graph" ] ~docv:"GRAPH"
        ~doc:
          "Specification to process: $(b,figure1), $(b,diamond), \
           $(b,paper:N) (N in 1..6), $(b,chain:N), \
           $(b,random:TASKS,OPS,SEED) or $(b,file:PATH) (see \
           Taskgraph.Serialize for the format).")

(* ---------------- shared options ---------------- *)

let adders = Arg.(value & opt int 2 & info [ "adders" ] ~docv:"N" ~doc:"Adder instances in F.")
let muls = Arg.(value & opt int 2 & info [ "muls" ] ~docv:"N" ~doc:"Multiplier instances in F.")
let subs = Arg.(value & opt int 1 & info [ "subs" ] ~docv:"N" ~doc:"Subtracter instances in F.")

let capacity =
  Arg.(
    value
    & opt (some int) None
    & info [ "c"; "capacity" ] ~docv:"FG"
        ~doc:"FPGA capacity in function generators (default: non-binding).")

let alpha =
  Arg.(value & opt float 0.7 & info [ "alpha" ] ~docv:"A" ~doc:"Logic-optimization factor in (0,1].")

let scratch =
  Arg.(value & opt int 64 & info [ "m"; "scratch" ] ~docv:"WORDS" ~doc:"Scratch memory Ms between partitions.")

let latency =
  Arg.(value & opt int 0 & info [ "l"; "latency-relax" ] ~docv:"L" ~doc:"Latency relaxation over the maximum ALAP.")

let partitions =
  Arg.(
    value
    & opt (some int) None
    & info [ "n"; "partitions" ] ~docv:"N"
        ~doc:"Partition bound N (default: estimated by list scheduling).")

let time_limit =
  Arg.(value & opt float 600. & info [ "time-limit" ] ~docv:"SECONDS" ~doc:"Branch-and-bound wall-clock limit.")

let strategy =
  let strategy_conv =
    Arg.enum
      [ ("paper", Temporal.Branching.Paper);
        ("most-fractional", Temporal.Branching.Most_fractional);
        ("first-fractional", Temporal.Branching.First_fractional) ]
  in
  Arg.(
    value
    & opt strategy_conv Temporal.Branching.Paper
    & info [ "strategy"; "branching" ] ~docv:"RULE"
        ~doc:
          "Branching rule: $(b,paper), $(b,most-fractional) or \
           $(b,first-fractional).")

let no_tighten =
  Arg.(value & flag & info [ "no-tighten" ] ~doc:"Drop the Section 6 tightening cuts (eqs. 28-32).")

let no_step_cuts =
  Arg.(value & flag & info [ "no-step-cuts" ] ~doc:"Drop the step-ownership cuts (see DESIGN.md).")

let fortet =
  Arg.(value & flag & info [ "fortet" ] ~doc:"Use Fortet's linearization instead of Glover's.")

let dot_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "dot" ] ~docv:"FILE" ~doc:"Write a DOT rendering to $(docv).")

let lp_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "lp" ] ~docv:"FILE" ~doc:"Write the generated model in LP format to $(docv).")

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* ---------------- graph command ---------------- *)

let graph_cmd =
  let save_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE"
          ~doc:"Write the specification in the textual graph format to $(docv).")
  in
  let run g dot save =
    Format.printf "%a@." Taskgraph.Graph.pp_summary g;
    Format.printf "critical path: %d control steps@."
      (Taskgraph.Topo.critical_path_length g);
    (match dot with
     | Some path ->
       write_file path (Taskgraph.Dot.op_graph g);
       Format.printf "wrote %s@." path
     | None -> ());
    (match save with
     | Some path ->
       Taskgraph.Serialize.save path g;
       Format.printf "wrote %s@." path
     | None -> ());
    0
  in
  Cmd.v (Cmd.info "graph" ~doc:"Print a specification summary.")
    Term.(const run $ graph_arg $ dot_out $ save_out)

(* ---------------- estimate command ---------------- *)

let estimate_cmd =
  let run g a m s capacity alpha latency =
    let allocation = Hls.Component.ams (a, m, s) in
    let probe =
      Temporal.Spec.make ~graph:g ~allocation ?capacity ~alpha
        ~latency_relax:latency ~num_partitions:1 ()
    in
    let c =
      {
        Hls.Estimate.capacity = probe.Temporal.Spec.capacity;
        alpha;
        max_steps = Temporal.Spec.num_steps probe;
      }
    in
    match Hls.Estimate.estimate g allocation c with
    | Some seg ->
      Format.printf "%a@." Hls.Estimate.pp seg;
      0
    | None ->
      Format.printf "no feasible greedy segmentation@.";
      1
  in
  Cmd.v
    (Cmd.info "estimate" ~doc:"Greedy list-scheduling segment estimation (Figure 2, stage 1).")
    Term.(const run $ graph_arg $ adders $ muls $ subs $ capacity $ alpha $ latency)

(* ---------------- solve command ---------------- *)

let report_flag =
  Arg.(value & flag & info [ "report" ] ~doc:"Print the full design report (summary + Gantt chart).")

let lint_flag =
  Arg.(
    value
    & flag
    & info [ "lint" ]
        ~doc:
          "Analyze and audit the formulated model before solving; abort \
           on error-level findings.")

let stats_flag =
  Arg.(
    value
    & flag
    & info [ "stats" ]
        ~doc:
          "Print LP-engine statistics after solving: basis \
           factorizations, fill-in, eta updates, refactorization \
           triggers, and FTRAN/BTRAN solve times. With --jobs > 1, also \
           one line per worker domain (nodes, steals, handoffs, idle \
           time).")

let jobs_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some _ | None -> Error (`Msg "expected a worker count >= 1")
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs_arg =
  Arg.(
    value
    & opt jobs_conv 1
    & info [ "j"; "jobs" ] ~docv:"JOBS"
        ~doc:
          "Worker domains for the branch-and-bound search (default 1 = \
           sequential). Each worker owns a private simplex engine; the \
           incumbent is shared.")

let deterministic_flag =
  Arg.(
    value
    & flag
    & info [ "deterministic" ]
        ~doc:
          "With --jobs > 1: reproducible node counts (static work \
           distribution, local-only pruning) at the price of weaker \
           pruning.")

let solve_json_flag =
  Arg.(
    value
    & flag
    & info [ "json" ]
        ~doc:
          "Emit a machine-readable JSON summary (outcome, model size, \
           node counts, deduction statistics, incumbent timeline) \
           instead of the text report.")

let certify_arg =
  let certify_conv =
    Arg.enum
      [ ("off", Ilp.Branch_bound.Cert_off);
        ("root", Ilp.Branch_bound.Cert_root);
        ("incumbents", Ilp.Branch_bound.Cert_incumbents);
        ("all", Ilp.Branch_bound.Cert_all) ]
  in
  Arg.(
    value
    & opt certify_conv Ilp.Branch_bound.Cert_off
        ~vopt:Ilp.Branch_bound.Cert_root
    & info [ "certify" ] ~docv:"LEVEL"
        ~doc:
          "Re-check LP verdicts in exact rational arithmetic: $(b,root) \
           (the default when $(docv) is omitted) certifies the root \
           relaxation, $(b,incumbents) adds every integral relaxation, \
           $(b,all) every node including infeasible ones (Farkas \
           proofs). The exit code then reports the aggregate verdict: 0 \
           certified, 1 refuted, 2 uncertifiable — overriding the usual \
           outcome codes. See docs/VERIFICATION.md.")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a structured solver trace to $(docv): $(b,.jsonl) \
           writes one event object per line, any other extension \
           (canonically $(b,.json)) writes Chrome trace_event JSON \
           loadable in Perfetto / chrome://tracing with one track per \
           solver domain. Inspect a $(b,.jsonl) trace with \
           $(b,tpart trace).")

let metrics_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Sample live solver metrics to $(docv) as a JSONL snapshot \
           stream: one registry snapshot object per line on the \
           $(b,--metrics-interval) cadence, plus one exact final \
           snapshot after every worker has joined. Inspect with \
           $(b,tpart metrics).")

let prometheus_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "prometheus" ] ~docv:"FILE"
        ~doc:
          "Write the final metrics snapshot to $(docv) in Prometheus \
           text exposition format (version 0.0.4) on exit.")

let metrics_interval =
  Arg.(
    value
    & opt float 1.0
    & info [ "metrics-interval" ] ~docv:"SECONDS"
        ~doc:
          "Sampling cadence for $(b,--metrics) / $(b,--progress) \
           (clamped to >= 0.01).")

let progress_flag =
  Arg.(
    value
    & flag
    & info [ "progress" ]
        ~doc:
          "Live gap-convergence progress on stderr: gap, best \
           bound/incumbent, node and pivot throughput, pool depth and \
           elapsed/deadline, redrawn in place on a TTY and as periodic \
           plain lines otherwise, with one final summary line either \
           way. Sampled on the $(b,--metrics-interval) cadence.")

(* One progress frame from a metrics snapshot. The final frame drops
   the instantaneous fields (rates, open nodes) and keeps only totals
   that are exact once the workers joined, so it is stable enough for
   the cram tests to pin. *)
let progress_render ~final ~time_limit (snap : Ilp.Metrics.snapshot) =
  let c k = Ilp.Metrics.counter_value snap k in
  let g k = Ilp.Metrics.gauge_value snap k in
  let bound = g Ilp.Metrics.G_best_bound
  and inc = g Ilp.Metrics.G_incumbent_obj in
  let pv v = if Float.is_finite v then Printf.sprintf "%g" v else "-" in
  let gap =
    if Float.is_finite bound && Float.is_finite inc then
      Printf.sprintf "%.2f%%"
        (100. *. (inc -. bound) /. Float.max 1e-9 (Float.abs inc))
    else "-"
  in
  let deadline =
    if Float.is_finite time_limit then Printf.sprintf "%g" time_limit
    else "inf"
  in
  let ts = snap.Ilp.Metrics.s_ts in
  if final then
    Printf.sprintf
      "progress: nodes=%d pivots=%d factorizations=%d bound=%s \
       incumbent=%s gap=%s elapsed=%.2f/%ss"
      (c Ilp.Metrics.C_nodes) (c Ilp.Metrics.C_lp_pivots)
      (c Ilp.Metrics.C_lu_factorizations)
      (pv bound) (pv inc) gap ts deadline
  else
    let rate n = if ts > 0. then Float.of_int n /. ts else 0. in
    Printf.sprintf
      "progress: nodes=%d (%.0f/s) pivots=%d (%.0f/s) open=%s pool=%s \
       bound=%s incumbent=%s gap=%s elapsed=%.1f/%ss"
      (c Ilp.Metrics.C_nodes)
      (rate (c Ilp.Metrics.C_nodes))
      (c Ilp.Metrics.C_lp_pivots)
      (rate (c Ilp.Metrics.C_lp_pivots))
      (pv (g Ilp.Metrics.G_open_nodes))
      (pv (g Ilp.Metrics.G_pool_depth))
      (pv bound) (pv inc) gap ts deadline

let json_of_result ?certification ~time_limit result =
  let r = result.Temporal.Pipeline.report in
  let s = r.Temporal.Solver.stats in
  let outcome, comm =
    match r.Temporal.Solver.outcome with
    | Temporal.Solver.Feasible sol ->
      ("optimal", string_of_int sol.Temporal.Solution.comm_cost)
    | Temporal.Solver.Infeasible_model -> ("infeasible", "null")
    | Temporal.Solver.Timed_out (Some sol) ->
      ("timeout", string_of_int sol.Temporal.Solution.comm_cost)
    | Temporal.Solver.Timed_out None -> ("timeout", "null")
  in
  Printf.sprintf
    "{\"outcome\": \"%s\", \"comm_cost\": %s, \"vars\": %d, \"constrs\": \
     %d, \"nodes\": %d, \"incumbents\": %d, \"max_depth\": %d, %s, \
     \"node_lps\": %s, \
     \"timeline\": %s, \"bound_timeline\": %s, \"elapsed\": %s, \
     \"time_limit\": %s, \"time_limit_hit\": %b%s}"
    outcome comm r.Temporal.Solver.vars r.Temporal.Solver.constrs
    s.Ilp.Branch_bound.nodes s.Ilp.Branch_bound.incumbents
    s.Ilp.Branch_bound.max_depth
    (String.concat ", "
       (List.map
          (fun (k, v) -> Printf.sprintf "\"%s\": %s" k (Ilp.Json.to_string v))
          (Ilp.Metrics_export.cells_to_json s.Ilp.Branch_bound.metrics)))
    (Ilp.Json.to_string
       (Ilp.Metrics_export.node_lps_to_json s.Ilp.Branch_bound.node_lps))
    (Ilp.Json.to_string (Temporal.Report.incumbent_timeline s))
    (Ilp.Json.to_string (Temporal.Report.bound_timeline s))
    (Ilp.Json.to_string (Ilp.Json.Num s.Ilp.Branch_bound.elapsed))
    (Ilp.Json.to_string
       (if Float.is_finite time_limit then Ilp.Json.Num time_limit
        else Ilp.Json.Null))
    (* The CLI exposes no node limit, so a limit verdict is a deadline
       hit; the elapsed check guards the day it grows one. *)
    (match r.Temporal.Solver.outcome with
     | Temporal.Solver.Timed_out _ ->
       s.Ilp.Branch_bound.elapsed >= time_limit *. 0.99
     | Temporal.Solver.Feasible _ | Temporal.Solver.Infeasible_model ->
       false)
    (match certification with
     | Some j -> Printf.sprintf ", \"certification\": %s" (Ilp.Json.to_string j)
     | None -> "")

let solve_cmd =
  let run g a m s capacity alpha scratch latency partitions time_limit strategy
      no_tighten no_step_cuts fortet dot lp_out report_wanted lint
      stats_wanted jobs deterministic certify json trace
      metrics_out prometheus_out metrics_interval progress =
    let allocation = Hls.Component.ams (a, m, s) in
    let options =
      {
        Temporal.Formulation.default_options with
        Temporal.Formulation.tighten = not no_tighten;
        step_cuts = not no_step_cuts;
        linearization =
          (if fortet then Temporal.Formulation.Fortet
           else Temporal.Formulation.Glover);
      }
    in
    let tracer =
      match trace with
      | Some _ -> Ilp.Trace.create ()
      | None -> Ilp.Trace.disabled
    in
    (* Any of the three telemetry outputs needs the solve to count into
       a registry of ours (it uses a private one otherwise); the sampler
       thread drives them all from the same snapshot stream. *)
    let metrics =
      if metrics_out <> None || prometheus_out <> None || progress then
        Some (Ilp.Metrics.create ())
      else None
    in
    Option.iter
      (fun m ->
        if trace <> None then
          (* Polled, not hot-path: the tracer's drop count only moves
             when a ring buffer wraps, so it is published at snapshot
             time. *)
          Ilp.Metrics.on_snapshot m (fun () ->
              Ilp.Metrics.set_shared m Ilp.Metrics.C_trace_dropped_events
                (Ilp.Trace.dropped tracer)))
      metrics;
    let metrics_oc = Option.map open_out metrics_out in
    let n_snapshots = ref 0 in
    let prev_snap = ref Ilp.Metrics.empty_snapshot in
    (* Mid-run snapshots are racy-monotone per cell; clamping against
       the previously emitted one keeps the on-disk stream invariant
       unconditional (see Metrics_export.monotonize). *)
    let emit snap =
      let snap = Ilp.Metrics_export.monotonize !prev_snap snap in
      prev_snap := snap;
      incr n_snapshots;
      Option.iter (fun oc -> Ilp.Metrics_export.write_jsonl oc snap) metrics_oc;
      snap
    in
    let tty = Unix.isatty Unix.stderr in
    let show_progress snap =
      let line = progress_render ~final:false ~time_limit snap in
      if tty then Printf.eprintf "\r%s\027[K%!" line
      else Printf.eprintf "%s\n%!" line
    in
    let sampler =
      Option.map
        (fun m ->
          Ilp.Metrics_export.start ~interval:metrics_interval m
            ~on_sample:(fun snap ->
              let snap = emit snap in
              if progress then show_progress snap))
        metrics
    in
    let result =
      Temporal.Pipeline.run ~options ~strategy ~time_limit
        ?num_partitions:partitions ~lint ~jobs ~deterministic ~certify
        ~tracer ?metrics ~graph:g
        ~allocation ?capacity ~alpha ~scratch ~latency_relax:latency ()
    in
    (* Stop sampling before any post-processing: the final snapshot is
       taken after every worker domain joined, so its totals are exact
       (they equal --stats; the test suite pins this). *)
    let final_snap =
      Option.map
        (fun smp ->
          let snap = emit (Ilp.Metrics_export.stop smp) in
          if progress then begin
            if tty then Printf.eprintf "\r\027[K%!";
            Printf.eprintf "%s\n%!"
              (progress_render ~final:true ~time_limit snap)
          end;
          snap)
        sampler
    in
    let stats = result.Temporal.Pipeline.report.Temporal.Solver.stats in
    let certifying = certify <> Ilp.Branch_bound.Cert_off in
    (* Certificate rows are reported in the original formulation's
       coordinates (the solver maps presolved rows back), so naming
       them only needs a fresh deterministic build of the same model. *)
    let row_name =
      lazy
        (let vars =
           Temporal.Formulation.build ~options result.Temporal.Pipeline.spec
         in
         let lp = vars.Temporal.Vars.lp in
         fun i ->
           if i >= 0 && i < Ilp.Lp.num_constrs lp then Ilp.Lp.row_name lp i
           else Printf.sprintf "r%d" i)
    in
    if json then
      print_endline
        (json_of_result
           ?certification:
             (if certifying then
                Some
                  (Temporal.Report.certification
                     ~row_name:(Lazy.force row_name) stats)
              else None)
           ~time_limit result)
    else Format.printf "%a@." Temporal.Pipeline.pp result;
    (* --certify alone prints the report's certification line, with the
       support rows of a Farkas proof; --stats prints the whole report *)
    if (stats_wanted || certifying) && not json then
      print_string
        (Format.asprintf "%a"
           (Ilp.Metrics_export.pp_report
              ?only:
                (if stats_wanted then None
                 else Some Ilp.Metrics_export.certification)
              ?certified:
                (if certifying then
                   Some
                     stats.Ilp.Branch_bound.certification
                       .Ilp.Branch_bound.root_certificate
                 else None)
              ~describe_row:(fun i ->
                Temporal.Audit.describe_row (Lazy.force row_name i))
              ?node_lps:
                (if stats_wanted then Some stats.Ilp.Branch_bound.node_lps
                 else None)
              ?workers:
                (if stats_wanted then
                   Some
                     (stats.Ilp.Branch_bound.elapsed, stats.Ilp.Branch_bound.workers)
                 else None))
           stats.Ilp.Branch_bound.metrics);
    (* "wrote FILE" confirmations move to stderr under --json so the
       stdout report stays a single parseable object *)
    let note path detail =
      (if json then Format.eprintf else Format.printf) "wrote %s%s@." path
        detail
    in
    (match trace with
     | Some path ->
       let records = Ilp.Trace.collect tracer in
       let oc = open_out path in
       (if Filename.check_suffix path ".jsonl" then
          Ilp.Trace_export.write_jsonl oc records
        else Ilp.Trace_export.write_chrome oc records);
       close_out oc;
       let dropped = Ilp.Trace.dropped tracer in
       note path
         (Printf.sprintf " (%d events%s)" (Array.length records)
            (if dropped > 0 then Printf.sprintf ", %d overwritten" dropped
             else ""))
     | None -> ());
    (match (metrics_out, metrics_oc) with
     | Some path, Some oc ->
       close_out oc;
       note path (Printf.sprintf " (%d snapshots)" !n_snapshots)
     | _ -> ());
    (match (prometheus_out, final_snap) with
     | Some path, Some snap ->
       write_file path (Ilp.Metrics_export.prometheus snap);
       note path ""
     | _ -> ());
    (match lp_out with
     | Some path ->
       let vars =
         Temporal.Formulation.build ~options result.Temporal.Pipeline.spec
       in
       write_file path (Ilp.Lp_format.to_string vars.Temporal.Vars.lp);
       note path ""
     | None -> ());
    let outcome_exit =
      match result.Temporal.Pipeline.report.Temporal.Solver.outcome with
      | Temporal.Solver.Feasible sol ->
        if report_wanted then
          print_string
            (Temporal.Report.full result.Temporal.Pipeline.spec sol);
        (match dot with
         | Some path ->
           write_file path
             (Taskgraph.Dot.op_graph_with_partition g (fun t ->
                  sol.Temporal.Solution.partition_of.(t)));
           note path ""
         | None -> ());
        0
      | Temporal.Solver.Infeasible_model -> 1
      | Temporal.Solver.Timed_out _ -> 2
    in
    if not certifying then outcome_exit
    else begin
      (* With --certify the exit code is the aggregate verdict: any
         refutation dominates, then any unproven check; a run with no
         check at all proved nothing. *)
      let c = Ilp.Metrics.counter_value stats.Ilp.Branch_bound.metrics in
      Ilp.Certify.exit_code
        (if c Ilp.Metrics.C_cert_refuted > 0 then Ilp.Certify.Refuted
         else if
           c Ilp.Metrics.C_cert_uncertifiable > 0
           || c Ilp.Metrics.C_cert_checked = 0
         then Ilp.Certify.Uncertifiable
         else Ilp.Certify.Certified)
    end
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Exact temporal partitioning and synthesis (full Figure 2 flow).")
    Term.(
      const run $ graph_arg $ adders $ muls $ subs $ capacity $ alpha $ scratch
      $ latency $ partitions $ time_limit $ strategy $ no_tighten
      $ no_step_cuts $ fortet $ dot_out $ lp_out $ report_flag $ lint_flag
      $ stats_flag $ jobs_arg $ deterministic_flag $ certify_arg
      $ solve_json_flag $ trace_out
      $ metrics_out $ prometheus_out $ metrics_interval $ progress_flag)

(* ---------------- analyze command ---------------- *)

(* IIS extraction path shared by the analyze input modes. [describe]
   phrases a row name for humans ({!Temporal.Audit.describe_row} when
   the model came from a formulated graph). Exit code is the
   certificate verdict: 0 certified, 2 when nothing could be proven. *)
let run_iis ~json ~describe lp =
  match Ilp.Iis.extract lp with
  | Ilp.Iis.Feasible ->
    print_endline
      "LP relaxation feasible: no irreducible infeasible subsystem";
    0
  | Ilp.Iis.Inconclusive msg ->
    Format.eprintf "tpart analyze: IIS extraction inconclusive: %s@." msg;
    2
  | Ilp.Iis.Iis r ->
    let cert = r.Ilp.Iis.certificate in
    if json then begin
      let num n = Ilp.Json.Num (Float.of_int n) in
      let row_name i =
        if i >= 0 && i < Ilp.Lp.num_constrs lp then Ilp.Lp.row_name lp i
        else Printf.sprintf "r%d" i
      in
      print_endline
        (Ilp.Json.to_string
           (Ilp.Json.Obj
              [
                ("rows", Ilp.Json.Arr (List.map num r.Ilp.Iis.rows));
                ( "names",
                  Ilp.Json.Arr
                    (List.map (fun s -> Ilp.Json.Str s) r.Ilp.Iis.names) );
                ("solves", num r.Ilp.Iis.solves);
                ("certificate", Ilp.Certify.to_json ~row_name cert);
              ]))
    end
    else begin
      Format.printf
        "irreducible infeasible subsystem: %d row(s), %d LP solves@."
        (List.length r.Ilp.Iis.rows)
        r.Ilp.Iis.solves;
      List.iter
        (fun name -> Format.printf "  %s@." (describe name))
        r.Ilp.Iis.names;
      Format.printf "%s@." (Ilp.Certify.describe cert)
    end;
    Ilp.Certify.exit_code cert.Ilp.Certify.verdict

let analyze_cmd =
  let graph_opt =
    Arg.(
      value
      & opt (some graph_conv) None
      & info [ "g"; "graph" ] ~docv:"GRAPH"
          ~doc:
            "Specification to formulate and audit (same values as \
             $(b,tpart solve)).")
  in
  let from_lp =
    Arg.(
      value
      & opt (some string) None
      & info [ "from-lp" ] ~docv:"FILE"
          ~doc:
            "Analyze a model in CPLEX-LP format instead of formulating a \
             graph (generic checks only — no formulation audit).")
  in
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report(s) as JSON.")
  in
  let iis_flag =
    Arg.(
      value
      & flag
      & info [ "iis" ]
          ~doc:
            "Instead of the static report, certify the LP relaxation's \
             infeasibility exactly and extract an irreducible infeasible \
             subsystem: a minimal set of rows that cannot hold together, \
             each named in the formulation's terms, backed by an \
             exactly-checked Farkas certificate. Exit 0 when the \
             certificate holds, 2 when nothing could be proven.")
  in
  let run g from_lp a m s capacity alpha scratch latency partitions no_tighten
      no_step_cuts fortet json iis =
    match (g, from_lp) with
    | None, None | Some _, Some _ ->
      prerr_endline "tpart analyze: give exactly one of --graph or --from-lp";
      Cmd.Exit.cli_error
    | None, Some path ->
      (match
         let ic = open_in path in
         let n = in_channel_length ic in
         let s = really_input_string ic n in
         close_in ic;
         Ilp.Lp_parse.of_string s
       with
       | exception Sys_error msg ->
         Format.eprintf "tpart analyze: %s@." msg;
         1
       | exception Invalid_argument msg ->
         Format.eprintf "tpart analyze: cannot parse %s: %s@." path msg;
         1
       | lp ->
         if iis then run_iis ~json ~describe:(fun n -> n) lp
         else begin
           let report = Ilp.Analyze.analyze lp in
           if json then
             print_endline (Ilp.Json.to_string (Ilp.Analyze.to_json report))
           else Format.printf "%a@." Ilp.Analyze.pp_report report;
           if Ilp.Analyze.is_clean report then 0 else 1
         end)
    | Some g, None ->
      let allocation = Hls.Component.ams (a, m, s) in
      let options =
        {
          Temporal.Formulation.default_options with
          Temporal.Formulation.tighten = not no_tighten;
          step_cuts = not no_step_cuts;
          linearization =
            (if fortet then Temporal.Formulation.Fortet
             else Temporal.Formulation.Glover);
        }
      in
      (* Default N the way the pipeline does: list-scheduling estimate,
         falling back to the trivial one-task-per-partition bound. *)
      let n =
        match partitions with
        | Some n -> n
        | None ->
          let probe =
            Temporal.Spec.make ~graph:g ~allocation ?capacity ~alpha ~scratch
              ~latency_relax:latency ~num_partitions:1 ()
          in
          let c =
            {
              Hls.Estimate.capacity = probe.Temporal.Spec.capacity;
              alpha;
              max_steps = Temporal.Spec.num_steps probe;
            }
          in
          (match Hls.Estimate.estimate g allocation c with
           | Some seg -> Hls.Estimate.num_segments seg
           | None -> Taskgraph.Graph.num_tasks g)
      in
      let spec =
        Temporal.Spec.make ~graph:g ~allocation ?capacity ~alpha ~scratch
          ~latency_relax:latency ~num_partitions:n ()
      in
      let vars = Temporal.Formulation.build ~options spec in
      if iis then
        run_iis ~json ~describe:Temporal.Audit.describe_row
          vars.Temporal.Vars.lp
      else begin
      let analysis = Ilp.Analyze.analyze vars.Temporal.Vars.lp in
      let audit = Temporal.Audit.audit_vars vars in
      if json then
        print_endline
          (Ilp.Json.to_string
             (Ilp.Json.Obj
                [
                  ("analyze", Ilp.Analyze.to_json analysis);
                  ("audit", Temporal.Audit.to_json audit);
                ]))
      else begin
        Format.printf "%a@." Ilp.Analyze.pp_report analysis;
        Format.printf "%a@." Temporal.Audit.pp_report audit
      end;
      if Ilp.Analyze.is_clean analysis && Temporal.Audit.is_clean audit then 0
      else 1
      end
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Static model analysis (no solving): generic structural checks \
          plus the formulation audit against the paper's closed-form \
          census; $(b,--iis) extracts an exactly-certified irreducible \
          infeasible subsystem instead.")
    Term.(
      const run $ graph_opt $ from_lp $ adders $ muls $ subs $ capacity
      $ alpha $ scratch $ latency $ partitions $ no_tighten $ no_step_cuts
      $ fortet $ json_flag $ iis_flag)

(* ---------------- trace command ---------------- *)

let trace_file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE"
        ~doc:
          "JSONL trace recorded by $(b,tpart solve --trace FILE.jsonl) \
           (a Chrome trace_event export is not read back).")

let with_trace path k =
  match Ilp.Trace_export.load path with
  | Error msg ->
    Format.eprintf "tpart trace: %s@." msg;
    1
  | Ok records -> k records

let trace_tree_cmd =
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the tree as JSON instead of DOT.")
  in
  let run path json =
    with_trace path (fun records ->
        let nodes = Ilp.Trace_export.Tree.of_records records in
        if json then
          print_endline (Ilp.Json.to_string (Ilp.Trace_export.Tree.to_json nodes))
        else print_string (Ilp.Trace_export.Tree.to_dot nodes);
        0)
  in
  Cmd.v
    (Cmd.info "tree"
       ~doc:
         "Dump the branch-and-bound search tree from a trace: Graphviz \
          DOT (nodes colored by close reason) or JSON with $(b,--json).")
    Term.(const run $ trace_file_arg $ json_flag)

let trace_summary_cmd =
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the metrics report as JSON.")
  in
  let run path json =
    with_trace path (fun records ->
        let s = Ilp.Trace_export.Summary.of_records records in
        if json then
          print_endline (Ilp.Json.to_string (Ilp.Trace_export.Summary.to_json s))
        else Format.printf "%a@." Ilp.Trace_export.Summary.pp s;
        0)
  in
  Cmd.v
    (Cmd.info "summary"
       ~doc:
         "Derive the metrics report from a trace: time per phase, node \
          and pivot totals (matching $(b,--stats) exactly), close-reason \
          and depth histograms, bound-vs-time convergence.")
    Term.(const run $ trace_file_arg $ json_flag)

let trace_validate_cmd =
  let run path =
    with_trace path (fun records ->
        match Ilp.Trace_export.check records with
        | [] ->
          Format.printf "%s: %d records, stream consistent@." path
            (Array.length records);
          0
        | problems ->
          List.iter (fun p -> Format.eprintf "%s@." p) problems;
          Format.eprintf "%s: %d violation(s)@." path (List.length problems);
          1)
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Check a trace against the event schema and the stream \
          invariants (per-writer monotone timestamps, dense sequence \
          numbers, matched node open/close, properly nested phase \
          spans); exits 1 on any violation.")
    Term.(const run $ trace_file_arg)

let trace_cmd =
  Cmd.group
    (Cmd.info "trace"
       ~doc:"Inspect structured solver traces recorded by solve --trace.")
    [ trace_tree_cmd; trace_summary_cmd; trace_validate_cmd ]

(* ---------------- metrics command ---------------- *)

let metrics_file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE"
        ~doc:
          "Snapshot stream recorded by $(b,tpart solve --metrics): one \
           JSONL registry snapshot per line.")

let with_metrics path k =
  match Ilp.Metrics_export.load path with
  | Error msg ->
    Format.eprintf "tpart metrics: %s@." msg;
    1
  | Ok snaps -> k snaps

let metrics_summary_cmd =
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the summary as JSON.")
  in
  let run path json =
    with_metrics path (fun snaps ->
        match Ilp.Metrics_export.Summary.of_snapshots snaps with
        | Error msg ->
          Format.eprintf "tpart metrics: %s: %s@." path msg;
          1
        | Ok s ->
          if json then
            print_endline
              (Ilp.Json.to_string (Ilp.Metrics_export.Summary.to_json s))
          else Format.printf "%a@." Ilp.Metrics_export.Summary.pp s;
          0)
  in
  Cmd.v
    (Cmd.info "summary"
       ~doc:
         "Summarize a metrics snapshot stream: search/LP/LU/pool totals \
          and throughput from the final (exact) snapshot, gauge values, \
          histogram statistics, and a warning when trace events were \
          dropped.")
    Term.(const run $ metrics_file_arg $ json_flag)

let metrics_validate_cmd =
  let run path =
    with_metrics path (fun snaps ->
        match Ilp.Metrics_export.check snaps with
        | Ok () ->
          Format.printf "%s: %d snapshots, stream consistent@." path
            (List.length snaps);
          0
        | Error msg ->
          Format.eprintf "%s: %s@." path msg;
          1)
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Check a metrics snapshot stream against the codec and the \
          stream invariants (non-decreasing timestamps, monotone \
          counters and histogram cells, bucket sums matching counts); \
          exits 1 on any violation.")
    Term.(const run $ metrics_file_arg)

let metrics_cmd =
  Cmd.group
    (Cmd.info "metrics"
       ~doc:"Inspect metrics snapshots recorded by solve --metrics.")
    [ metrics_summary_cmd; metrics_validate_cmd ]

(* ---------------- explore command ---------------- *)

let explore_cmd =
  let l_max =
    Arg.(value & opt int 4 & info [ "l-max" ] ~docv:"L" ~doc:"Largest latency relaxation to sweep.")
  in
  let n_max =
    Arg.(value & opt int 3 & info [ "n-max" ] ~docv:"N" ~doc:"Largest partition bound to sweep.")
  in
  let run g a m s capacity alpha scratch time_limit l_max n_max jobs =
    let allocation = Hls.Component.ams (a, m, s) in
    let points =
      Temporal.Explore.sweep ~time_limit_per_point:time_limit ~jobs ~graph:g
        ~allocation ?capacity ~alpha ~scratch
        ~latency_range:(0, l_max) ~partition_range:(1, n_max) ()
    in
    Format.printf "%a" Temporal.Explore.pp_table points;
    Format.printf "@.Pareto frontier (latency relaxation vs communication):@.";
    Format.printf "%a" Temporal.Explore.pp_table
      (Temporal.Explore.pareto points);
    0
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Sweep (L, N) design points and print the trade-off frontier.")
    Term.(
      const run $ graph_arg $ adders $ muls $ subs $ capacity $ alpha $ scratch
      $ time_limit $ l_max $ n_max $ jobs_arg)

let () =
  let doc = "optimal temporal partitioning and synthesis for reconfigurable architectures" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "tpart" ~doc ~version:"1.0.0")
          [ graph_cmd; estimate_cmd; solve_cmd; analyze_cmd; explore_cmd;
            trace_cmd; metrics_cmd ]))
