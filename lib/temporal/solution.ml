module G = Taskgraph.Graph
module C = Hls.Component

type t = {
  partition_of : int array;
  op_step : int array;
  op_fu : int array;
  comm_cost : int;
  partitions_used : int;
}

let comm_cost_of_partition spec partition_of =
  List.fold_left
    (fun acc (t1, t2, bw) ->
      if partition_of.(t1) <> partition_of.(t2) then acc + bw else acc)
    0
    (G.task_edges spec.Spec.graph)

let of_schedule spec partition_of (op_step, op_fu) =
  {
    partition_of;
    op_step;
    op_fu;
    comm_cost = comm_cost_of_partition spec partition_of;
    partitions_used =
      List.length (List.sort_uniq Int.compare (Array.to_list partition_of));
  }

let extract vars sol =
  let g = vars.Vars.spec.Spec.graph in
  let schedule = Array.init (G.num_ops g) (Vars.x_value vars sol) in
  of_schedule vars.Vars.spec
    (Array.init (G.num_tasks g) (Vars.y_value vars sol))
    (Array.map fst schedule, Array.map snd schedule)

let validate spec sol =
  let g = spec.Spec.graph in
  let np = spec.Spec.num_partitions in
  let insts = Spec.instances spec in
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
  (* partition range *)
  Array.iteri
    (fun t p ->
      if p < 1 || p > np then err "task %d: partition %d outside 1..%d" t p np)
    sol.partition_of;
  (* (2) temporal order *)
  List.iter
    (fun (t1, t2, _) ->
      if sol.partition_of.(t1) > sol.partition_of.(t2) then
        err "order: task %d (p%d) feeds task %d (p%d)" t1 sol.partition_of.(t1)
          t2 sol.partition_of.(t2))
    (G.task_edges g);
  (* (3) scratch memory at every boundary *)
  let peak = Maps.memory_peak spec sol.partition_of in
  if peak > spec.Spec.scratch then
    err "memory: peak %d exceeds Ms = %d" peak spec.Spec.scratch;
  (* (6) windows, capability and completion within the schedule *)
  let ns = Spec.num_steps spec in
  for i = 0 to G.num_ops g - 1 do
    let lo, hi = Spec.window spec i in
    if sol.op_step.(i) < lo || sol.op_step.(i) > hi then
      err "op %d: step %d outside window [%d, %d]" i sol.op_step.(i) lo hi;
    let k = sol.op_fu.(i) in
    if k < 0 || k >= Array.length insts then err "op %d: bad instance %d" i k
    else begin
      if not (C.can_execute insts.(k).C.inst_kind (G.op_kind g i)) then
        err "op %d (%s): instance %d (%s) cannot execute it" i
          (G.op_kind_to_string (G.op_kind g i))
          k insts.(k).C.inst_kind.C.fu_name;
      if sol.op_step.(i) + Spec.instance_latency spec k - 1 > ns then
        err "op %d: completes after the last control step %d" i ns
    end
  done;
  (* (7) instance exclusivity over each unit's busy span *)
  let seen = Hashtbl.create 64 in
  for i = 0 to G.num_ops g - 1 do
    let k = sol.op_fu.(i) in
    if k >= 0 && k < Array.length insts then
      for j = sol.op_step.(i) to sol.op_step.(i) + Spec.busy_span spec k - 1 do
        let key = (j, k) in
        (match Hashtbl.find_opt seen key with
         | Some i' ->
           err "ops %d and %d share instance %d at step %d" i' i k j
         | None -> ());
        Hashtbl.replace seen key i
      done
  done;
  (* (8) dependencies: the consumer issues after the producer's result *)
  List.iter
    (fun (i1, i2) ->
      let lat1 =
        let k = sol.op_fu.(i1) in
        if k >= 0 && k < Array.length insts then Spec.instance_latency spec k
        else 1
      in
      if sol.op_step.(i1) + lat1 > sol.op_step.(i2) then
        err "dep %d -> %d: issue %d before result of %d (ready at %d)" i1 i2
          sol.op_step.(i2) i1
          (sol.op_step.(i1) + lat1))
    (G.op_deps g);
  (* (11) capacity per partition over instances actually used *)
  for p = 1 to np do
    let module S = Set.Make (Int) in
    let used = ref S.empty in
    for i = 0 to G.num_ops g - 1 do
      if sol.partition_of.(G.op_task g i) = p then
        used := S.add sol.op_fu.(i) !used
    done;
    let fg =
      S.fold (fun k acc -> acc + insts.(k).C.inst_kind.C.fg) !used 0
    in
    if spec.Spec.alpha *. Float.of_int fg > Float.of_int spec.Spec.capacity +. 1e-9
    then
      err "capacity: partition %d uses FG %d (alpha-scaled %.1f > C = %d)" p fg
        (spec.Spec.alpha *. Float.of_int fg)
        spec.Spec.capacity
  done;
  (* (13) control-step exclusivity between partitions (an operation
     occupies every step of its latency) *)
  let step_owner = Hashtbl.create 32 in
  for i = 0 to G.num_ops g - 1 do
    let p = sol.partition_of.(G.op_task g i) in
    let k = sol.op_fu.(i) in
    let span =
      if k >= 0 && k < Array.length insts then Spec.instance_latency spec k
      else 1
    in
    for j = sol.op_step.(i) to sol.op_step.(i) + span - 1 do
      match Hashtbl.find_opt step_owner j with
      | Some p' when p' <> p ->
        err "step %d used by partitions %d and %d" j p' p
      | Some _ -> ()
      | None -> Hashtbl.add step_owner j p
    done
  done;
  (* derived fields consistent *)
  let cc = comm_cost_of_partition spec sol.partition_of in
  if cc <> sol.comm_cost then
    err "comm_cost field %d does not match partition map (%d)" sol.comm_cost cc;
  let module S = Set.Make (Int) in
  let used = Array.fold_left (fun s p -> S.add p s) S.empty sol.partition_of in
  if S.cardinal used <> sol.partitions_used then
    err "partitions_used field %d does not match map (%d)" sol.partitions_used
      (S.cardinal used);
  match !errs with [] -> Ok () | l -> Error (List.rev l)

(* Build the full model-variable assignment realizing a design: the
   primary variables follow the design directly; every secondary
   variable gets its forced value. Produces a feasible point of the
   formulation by construction (the tests verify this with
   Ilp.Feas_check). *)
let to_vector vars sol =
  let spec = vars.Vars.spec in
  let g = spec.Spec.graph in
  let np = spec.Spec.num_partitions in
  let x = Array.make (Ilp.Lp.num_vars vars.Vars.lp) 0. in
  let set (v : Ilp.Lp.var) value = x.((v :> int)) <- value in
  (* y *)
  Array.iteri
    (fun t p -> set vars.Vars.y.(t).(p - 1) 1.)
    sol.partition_of;
  (* x_ijk *)
  Array.iteri
    (fun i entries ->
      List.iter
        (fun (j, k, v) ->
          if j = sol.op_step.(i) && k = sol.op_fu.(i) then set v 1.)
        entries)
    vars.Vars.x;
  (* w: crossing indicators *)
  Hashtbl.iter
    (fun (p, t1, t2) v ->
      if sol.partition_of.(t1) < p && p <= sol.partition_of.(t2) then set v 1.)
    vars.Vars.w;
  (* o and derived z, u *)
  let nf = Spec.num_instances spec in
  let uses = Array.make_matrix (Taskgraph.Graph.num_tasks g) nf false in
  for i = 0 to Taskgraph.Graph.num_ops g - 1 do
    uses.(Taskgraph.Graph.op_task g i).(sol.op_fu.(i)) <- true
  done;
  Array.iteri
    (fun t row ->
      Array.iteri
        (fun k o ->
          match o with
          | Some o_tk when uses.(t).(k) ->
            set o_tk 1.;
            let p = sol.partition_of.(t) in
            (match vars.Vars.z.(p - 1).(t).(k) with
             | Some z -> set z 1.
             | None -> ());
            set vars.Vars.u.(p - 1).(k) 1.
          | Some _ | None -> ())
        row)
    vars.Vars.o;
  (* c and s: an operation occupies every step of its latency *)
  let ns = Spec.num_steps spec in
  for i = 0 to Taskgraph.Graph.num_ops g - 1 do
    let t = Taskgraph.Graph.op_task g i in
    let lat = Spec.instance_latency spec sol.op_fu.(i) in
    for j = sol.op_step.(i) to Int.min ns (sol.op_step.(i) + lat - 1) do
      (match vars.Vars.c.(t).(j - 1) with
       | Some c -> set c 1.
       | None -> ());
      match vars.Vars.s with
      | Some s ->
        let p = sol.partition_of.(t) in
        if p >= 1 && p <= np then set s.(p - 1).(j - 1) 1.
      | None -> ()
    done
  done;
  x

let pp spec ppf sol =
  let g = spec.Spec.graph in
  let insts = Spec.instances spec in
  Format.fprintf ppf "@[<v>communication cost: %d (peak memory %d / Ms %d)@,"
    sol.comm_cost
    (Maps.memory_peak spec sol.partition_of)
    spec.Spec.scratch;
  Format.fprintf ppf "partitions used: %d of %d@," sol.partitions_used
    spec.Spec.num_partitions;
  for p = 1 to spec.Spec.num_partitions do
    let tasks =
      List.filter
        (fun t -> sol.partition_of.(t) = p)
        (List.init (G.num_tasks g) Fun.id)
    in
    if tasks <> [] then begin
      Format.fprintf ppf "partition %d:@," p;
      List.iter
        (fun t ->
          Format.fprintf ppf "  %s:" (G.task_name g t);
          List.iter
            (fun i ->
              Format.fprintf ppf " %s%d@@cs%d/%s"
                (G.op_kind_to_string (G.op_kind g i))
                i sol.op_step.(i)
                insts.(sol.op_fu.(i)).C.inst_kind.C.fu_name)
            (G.task_ops g t);
          Format.fprintf ppf "@,")
        tasks
    end
  done;
  Format.fprintf ppf "@]"
