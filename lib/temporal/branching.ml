type strategy = Paper | Most_fractional | First_fractional

let tol = 1e-6

let frac = Ilp.Branch_bound.fractionality

let paper_order vars =
  (* y variables: tasks by topological priority, partitions ascending;
     then u variables: partitions ascending, units ascending. *)
  let g = vars.Vars.spec.Spec.graph in
  let prio = Taskgraph.Topo.task_priority g in
  let tasks =
    List.sort
      (fun a b -> compare prio.(a) prio.(b))
      (List.init (Taskgraph.Graph.num_tasks g) Fun.id)
  in
  let ys =
    List.concat_map
      (fun t -> Array.to_list (Array.map (fun v -> (v : Ilp.Lp.var :> int)) vars.Vars.y.(t)))
      tasks
  in
  let us =
    List.concat_map
      (fun row -> Array.to_list (Array.map (fun v -> (v : Ilp.Lp.var :> int)) row))
      (Array.to_list vars.Vars.u)
  in
  (ys, us)

let rule strategy vars =
  match strategy with
  | Paper ->
    let ys, us = paper_order vars in
    fun ~lp_solution ~is_fixed ->
      (* resolve the partitioning variables completely — fixing an
         integral y still splits the space and lets the scheduler
         completion hook settle the subtree — then mop up fractional
         FU-usage variables *)
      (match List.find_opt (fun j -> not (is_fixed j)) ys with
       | Some j -> Some j
       | None ->
         List.find_opt (fun j -> frac lp_solution.(j) > tol) us)
  | Most_fractional ->
    fun ~lp_solution:_ ~is_fixed:_ -> None (* built-in fallback *)
  | First_fractional ->
    let ints =
      List.map
        (fun (v : Ilp.Lp.var) -> (v :> int))
        (Ilp.Lp.integer_vars vars.Vars.lp)
    in
    fun ~lp_solution ~is_fixed:_ ->
      List.find_opt (fun j -> frac lp_solution.(j) > tol) ints
