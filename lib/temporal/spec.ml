module G = Taskgraph.Graph
module C = Hls.Component

type tables = {
  insts : C.instance array;
  inst_latency : int array;
  inst_span : int array;
  inst_fg : int array;
  inst_pipelined : bool array;
  op_fus : int list array;
  unit_groups : (C.fu_kind * int) list;
}

type t = {
  graph : G.t;
  allocation : C.allocation;
  capacity : int;
  alpha : float;
  scratch : int;
  latency_relax : int;
  num_partitions : int;
  schedule : Hls.Schedule.t;
  tables : tables;
}

let make ~graph ~allocation ?capacity ?(alpha = 0.7) ?(scratch = 64)
    ?(latency_relax = 0) ~num_partitions () =
  if not (C.covers allocation graph) then
    invalid_arg "Spec.make: allocation does not cover the graph's op kinds";
  if alpha <= 0. || alpha > 1. then invalid_arg "Spec.make: alpha not in (0,1]";
  if scratch < 0 then invalid_arg "Spec.make: negative scratch memory";
  if latency_relax < 0 then invalid_arg "Spec.make: negative latency relax";
  if num_partitions < 1 then invalid_arg "Spec.make: num_partitions < 1";
  let capacity =
    match capacity with
    | Some c ->
      if c <= 0 then invalid_arg "Spec.make: capacity <= 0";
      c
    | None ->
      (* Non-binding default: the whole allocation fits one partition. *)
      1 + Float.to_int (Float.ceil (alpha *. Float.of_int (C.total_fg allocation)))
  in
  let insts = C.instances allocation in
  let nf = Array.length insts in
  let kind k = insts.(k).C.inst_kind in
  let inst_latency = Array.init nf (fun k -> (kind k).C.latency) in
  let inst_pipelined = Array.init nf (fun k -> (kind k).C.pipelined) in
  (* Steps during which instance [k] is busy with an operation issued
     at [j]: just [j] for a pipelined unit, the full latency otherwise. *)
  let inst_span =
    Array.init nf (fun k -> if inst_pipelined.(k) then 1 else inst_latency.(k))
  in
  let op_fus =
    Array.init (G.num_ops graph) (fun i ->
        let op = G.op_kind graph i in
        List.filter
          (fun k -> C.can_execute (kind k) op)
          (List.init nf Fun.id))
  in
  (* Mobility windows use the optimistic (minimum) latency over the
     capable units, so every binding's true window is contained in the
     model's window superset. *)
  let min_latency i =
    List.fold_left (fun acc k -> Int.min acc inst_latency.(k)) max_int op_fus.(i)
  in
  (* The allocation's unit kinds with their instance counts, entries
     that share a kind name merged. *)
  let unit_groups =
    List.map
      (fun name ->
        let same = List.filter (fun (fu, _) -> fu.C.fu_name = name) allocation in
        (fst (List.hd same), List.fold_left (fun n (_, m) -> n + m) 0 same))
      (List.sort_uniq String.compare
         (List.map (fun (fu, _) -> fu.C.fu_name) allocation))
  in
  {
    graph;
    allocation;
    capacity;
    alpha;
    scratch;
    latency_relax;
    num_partitions;
    schedule = Hls.Schedule.compute_weighted ~latency:min_latency graph;
    tables =
      {
        insts;
        inst_latency;
        inst_span;
        inst_fg = Array.init nf (fun k -> (kind k).C.fg);
        inst_pipelined;
        op_fus;
        unit_groups;
      };
  }

let instances spec = spec.tables.insts

let fu_of_op spec i = spec.tables.op_fus.(i)

let ops_of_fu spec k =
  let insts = instances spec in
  let fu_kind = insts.(k).C.inst_kind in
  let acc = ref [] in
  for i = G.num_ops spec.graph - 1 downto 0 do
    if C.can_execute fu_kind (G.op_kind spec.graph i) then acc := i :: !acc
  done;
  !acc

let window spec i =
  Hls.Schedule.window spec.schedule ~relax:spec.latency_relax i

let num_steps spec =
  Hls.Schedule.num_steps spec.schedule ~relax:spec.latency_relax

let num_instances spec = Array.length spec.tables.insts

let fg_of_instance spec k = spec.tables.inst_fg.(k)

let instance_latency spec k = spec.tables.inst_latency.(k)

let instance_pipelined spec k = spec.tables.inst_pipelined.(k)

let busy_span spec k = spec.tables.inst_span.(k)

let unit_groups spec = spec.tables.unit_groups

let pp ppf spec =
  Format.fprintf ppf
    "@[<v>%a@,F = %a (total FG %d)@,C = %d, alpha = %.2f, Ms = %d, L = %d, N = %d@,\
     cp = %d steps (%d with relaxation)@]"
    G.pp_summary spec.graph C.pp_allocation spec.allocation
    (C.total_fg spec.allocation) spec.capacity spec.alpha spec.scratch
    spec.latency_relax spec.num_partitions spec.schedule.Hls.Schedule.cp_length
    (num_steps spec)
