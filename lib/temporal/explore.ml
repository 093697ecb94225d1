type point = {
  latency_relax : int;
  num_partitions : int;
  outcome : [ `Optimal of Solution.t | `Infeasible | `Timeout ];
  seconds : float;
}

let sweep ?(time_limit_per_point = 120.) ?(jobs = 1)
    ~graph ~allocation ?capacity ?alpha ?scratch
    ~latency_range:(l_lo, l_hi) ~partition_range:(n_lo, n_hi) () =
  if l_lo < 0 || l_hi < l_lo then invalid_arg "Explore.sweep: latency range";
  if n_lo < 1 || n_hi < n_lo then invalid_arg "Explore.sweep: partition range";
  if jobs < 1 then invalid_arg "Explore.sweep: jobs < 1";
  let grid =
    Array.init
      ((l_hi - l_lo + 1) * (n_hi - n_lo + 1))
      (fun k ->
        (l_lo + (k / (n_hi - n_lo + 1)), n_lo + (k mod (n_hi - n_lo + 1))))
  in
  (* The (L, N) points are independent solves, so they parallelize with
     the same pool the tree search uses — one sequential solver per
     point, [jobs] points in flight. Results come back in grid order
     whatever the completion order. *)
  let solve_point (l, n) =
    let spec =
      Spec.make ~graph ~allocation ?capacity ?alpha ?scratch ~latency_relax:l
        ~num_partitions:n ()
    in
    let vars = Formulation.build spec in
    let t0 = Ilp.Mono.now () in
    let report = Solver.solve ~time_limit:time_limit_per_point vars in
    let seconds = Ilp.Mono.elapsed_since t0 in
    let outcome =
      match report.Solver.outcome with
      | Solver.Feasible sol -> `Optimal sol
      | Solver.Infeasible_model -> `Infeasible
      | Solver.Timed_out _ -> `Timeout
    in
    { latency_relax = l; num_partitions = n; outcome; seconds }
  in
  Array.to_list (Ilp.Pool.map ~jobs solve_point grid)

let pareto points =
  let optimal =
    List.filter_map
      (fun p ->
        match p.outcome with
        | `Optimal sol -> Some (p, sol.Solution.comm_cost)
        | `Infeasible | `Timeout -> None)
      points
  in
  let dominates (p1, c1) (p2, c2) =
    p1.latency_relax <= p2.latency_relax
    && c1 <= c2
    && (p1.latency_relax < p2.latency_relax || c1 < c2
        || p1.num_partitions < p2.num_partitions)
  in
  List.filter
    (fun pc -> not (List.exists (fun other -> dominates other pc) optimal))
    optimal
  |> List.map fst

let pp_table ppf points =
  Format.fprintf ppf " %-4s %-4s | %-12s | %-10s | %s@." "L" "N" "result"
    "partitions" "time";
  List.iter
    (fun p ->
      let result, parts =
        match p.outcome with
        | `Optimal sol ->
          (Printf.sprintf "cost %d" sol.Solution.comm_cost,
           string_of_int sol.Solution.partitions_used)
        | `Infeasible -> ("infeasible", "-")
        | `Timeout -> ("timeout", "-")
      in
      Format.fprintf ppf " %-4d %-4d | %-12s | %-10s | %.1fs@." p.latency_relax
        p.num_partitions result parts p.seconds)
    points
