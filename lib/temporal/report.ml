module G = Taskgraph.Graph
module C = Hls.Component

let base36 n =
  let digits = "0123456789abcdefghijklmnopqrstuvwxyz" in
  if n < 36 then String.make 1 digits.[n]
  else Printf.sprintf "%c%c" digits.[n / 36 mod 36] digits.[n mod 36]

let gantt spec sol =
  let ns = Spec.num_steps spec in
  let nf = Spec.num_instances spec in
  let insts = Spec.instances spec in
  let b = Buffer.create 1024 in
  let cell_w = 3 in
  let name_w = 10 in
  (* step ownership header *)
  let owner = Array.make (ns + 1) 0 in
  for i = 0 to G.num_ops spec.Spec.graph - 1 do
    let p = sol.Solution.partition_of.(G.op_task spec.Spec.graph i) in
    let lat = Spec.instance_latency spec sol.Solution.op_fu.(i) in
    for j = sol.Solution.op_step.(i) to Int.min ns (sol.Solution.op_step.(i) + lat - 1) do
      owner.(j) <- p
    done
  done;
  Buffer.add_string b (Printf.sprintf "%*s" name_w "step");
  for j = 1 to ns do
    Buffer.add_string b (Printf.sprintf "%*d" cell_w j)
  done;
  Buffer.add_char b '\n';
  Buffer.add_string b (Printf.sprintf "%*s" name_w "partition");
  for j = 1 to ns do
    Buffer.add_string b
      (if owner.(j) = 0 then Printf.sprintf "%*s" cell_w "."
       else Printf.sprintf "%*s" cell_w (Printf.sprintf "P%d" owner.(j)))
  done;
  Buffer.add_char b '\n';
  (* one row per instance *)
  let grid = Array.make_matrix nf (ns + 1) "." in
  for i = 0 to G.num_ops spec.Spec.graph - 1 do
    let k = sol.Solution.op_fu.(i) in
    let j0 = sol.Solution.op_step.(i) in
    grid.(k).(j0) <- base36 i;
    let span = Spec.busy_span spec k in
    for j = j0 + 1 to Int.min ns (j0 + span - 1) do
      grid.(k).(j) <- "-"
    done
  done;
  for k = 0 to nf - 1 do
    Buffer.add_string b
      (Printf.sprintf "%*s" name_w
         (Printf.sprintf "%s#%d" insts.(k).C.inst_kind.C.fu_name k));
    for j = 1 to ns do
      Buffer.add_string b (Printf.sprintf "%*s" cell_w grid.(k).(j))
    done;
    Buffer.add_char b '\n'
  done;
  Buffer.contents b

let summary spec sol =
  let g = spec.Spec.graph in
  let insts = Spec.instances spec in
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "design: %s — communication cost %d, %d of %d partitions used\n"
       (G.name g) sol.Solution.comm_cost sol.Solution.partitions_used
       spec.Spec.num_partitions);
  let regs = Registers.analyze spec sol in
  for p = 1 to spec.Spec.num_partitions do
    let tasks =
      List.filter
        (fun t -> sol.Solution.partition_of.(t) = p)
        (List.init (G.num_tasks g) Fun.id)
    in
    if tasks <> [] then begin
      let module S = Set.Make (Int) in
      let used = ref S.empty in
      let steps = ref S.empty in
      List.iter
        (fun t ->
          List.iter
            (fun i ->
              used := S.add sol.Solution.op_fu.(i) !used;
              let lat = Spec.instance_latency spec sol.Solution.op_fu.(i) in
              for j = sol.Solution.op_step.(i) to sol.Solution.op_step.(i) + lat - 1 do
                steps := S.add j !steps
              done)
            (G.task_ops g t))
        tasks;
      let fg = S.fold (fun k acc -> acc + insts.(k).C.inst_kind.C.fg) !used 0 in
      let regs_p =
        match
          List.find_opt (fun (p', _) -> p' = p) (Array.to_list regs.Registers.per_partition)
        with
        | Some (_, r) -> r
        | None -> 0
      in
      Buffer.add_string b
        (Printf.sprintf
           "  P%d: tasks {%s}; units {%s} (FG %d, alpha-scaled %.1f <= C %d); %d steps; %d registers\n"
           p
           (String.concat ", " (List.map (G.task_name g) tasks))
           (String.concat ", "
              (List.map
                 (fun k -> Printf.sprintf "%s#%d" insts.(k).C.inst_kind.C.fu_name k)
                 (S.elements !used)))
           fg
           (spec.Spec.alpha *. Float.of_int fg)
           spec.Spec.capacity (S.cardinal !steps) regs_p)
    end
  done;
  for p = 2 to spec.Spec.num_partitions do
    let words = Maps.memory_demand spec sol.Solution.partition_of p in
    if words > 0 then
      Buffer.add_string b
        (Printf.sprintf
           "  reconfiguration before P%d: %d words in scratch memory (Ms %d)\n"
           p words spec.Spec.scratch)
  done;
  Buffer.add_string b
    (Printf.sprintf "  values spilled across reconfigurations: %d\n"
       regs.Registers.spilled_values);
  Buffer.contents b

let full spec sol = summary spec sol ^ gantt spec sol

let certification ?row_name (stats : Ilp.Branch_bound.stats) : Ilp.Json.t =
  Ilp.Json.Obj
    (match
       stats.Ilp.Branch_bound.certification.Ilp.Branch_bound.root_certificate
     with
     | Some cert -> [ ("root", Ilp.Certify.to_json ?row_name cert) ]
     | None -> [])

let incumbent_timeline (stats : Ilp.Branch_bound.stats) : Ilp.Json.t =
  Ilp.Json.Arr
    (Array.to_list
       (Array.map
          (fun (t, obj, node, source) ->
            Ilp.Json.Obj
              [
                ("t", Ilp.Json.Num t);
                ("obj", Ilp.Json.Num obj);
                ("node", Ilp.Json.Num (Float.of_int node));
                ( "source",
                  Ilp.Json.Str (Ilp.Trace.incumbent_source_name source) );
              ])
          stats.Ilp.Branch_bound.timeline))

let bound_timeline (stats : Ilp.Branch_bound.stats) : Ilp.Json.t =
  Ilp.Json.Arr
    (Array.to_list
       (Array.map
          (fun (t, b) ->
            Ilp.Json.Obj
              [
                ("t", Ilp.Json.Num t);
                ( "bound",
                  if Float.is_finite b then Ilp.Json.Num b else Ilp.Json.Null
                );
              ])
          stats.Ilp.Branch_bound.bound_timeline))
