module G = Taskgraph.Graph
module C = Hls.Component

let respects_order spec part =
  List.for_all
    (fun (t1, t2, _) ->
      part.(t1) = 0 || part.(t2) = 0 || part.(t1) <= part.(t2))
    (G.task_edges spec.Spec.graph)

let memory_demand spec part p =
  List.fold_left
    (fun acc (t1, t2, bw) ->
      if 0 < part.(t1) && part.(t1) < p && p <= part.(t2) then acc + bw
      else acc)
    0
    (G.task_edges spec.Spec.graph)

let memory_peak spec part =
  let peak = ref 0 in
  for p = 2 to spec.Spec.num_partitions do
    peak := Int.max !peak (memory_demand spec part p)
  done;
  !peak

(* The capable-unit count per op kind ([kinds]) of every maximal unit
   subset that fits the capacity, C / alpha function generators. The
   allocation is a small multiset, so the subsets are enumerated
   exactly, and the joint effect of covering several kinds within one
   budget is captured: a budget that only fits one unit each of add,
   mul and sub serializes all three kinds. Adding a unit never raises a
   per-kind bound, so the maximal subsets are the only ones needed. *)
let unit_subsets spec kinds =
  let budget = Float.of_int spec.Spec.capacity /. spec.Spec.alpha in
  let fits fg = Float.of_int fg <= budget +. 1e-9 in
  let acc = ref [] in
  let rec choose fg taken = function
    | [] ->
      if
        List.for_all
          (fun (fu, avail, n) -> n = avail || not (fits (fg + fu.C.fg)))
          taken
      then
        acc :=
          Array.map
            (fun kind ->
              List.fold_left
                (fun u (fu, _, n) -> if C.can_execute fu kind then u + n else u)
                0 taken)
            kinds
          :: !acc
    | (fu, avail) :: rest ->
      for n = 0 to avail do
        let fg' = fg + (n * fu.C.fg) in
        if fits fg' then choose fg' ((fu, avail, n) :: taken) rest
      done
  in
  choose 0 [] (Spec.unit_groups spec);
  !acc

(* Every partition needs at least as many owned control steps as (a)
   its longest intra-partition dependency chain (optimistic unit
   latencies) and (b) the best per-kind serialization any
   capacity-feasible unit subset allows. The partitions own disjoint
   steps, so the bounds add up; exceeding the step budget refutes the
   map without any search. *)
let steps_lower_bound spec part =
  let g = spec.Spec.graph in
  let np = spec.Spec.num_partitions in
  let kinds = Array.of_list G.all_op_kinds in
  let nk = Array.length kinds in
  let kind_index i =
    let kind = G.op_kind g i in
    let rec find k = if kinds.(k) = kind then k else find (k + 1) in
    find 0
  in
  let op_part i = part.(G.op_task g i) in
  (* ops per partition and kind, at [p * nk + k] *)
  let count = Array.make ((np + 1) * nk) 0 in
  (* longest chain ending at each op within its partition; 0 until set *)
  let depth = Array.make (G.num_ops g) 0 in
  let rec chain i =
    if depth.(i) = 0 then
      depth.(i) <-
        1
        + List.fold_left
            (fun m pr -> if op_part pr = op_part i then Int.max m (chain pr) else m)
            0 (G.op_preds g i);
    depth.(i)
  in
  let cp = Array.make (np + 1) 0 in
  for i = 0 to G.num_ops g - 1 do
    let p = op_part i in
    if p > 0 then begin
      let c = (p * nk) + kind_index i in
      count.(c) <- count.(c) + 1;
      cp.(p) <- Int.max cp.(p) (chain i)
    end
  done;
  let subsets = lazy (unit_subsets spec kinds) in
  (* per-kind serialization of partition [p] on the capable [units] *)
  let serial p units =
    let b = ref 0 in
    for k = 0 to nk - 1 do
      let c = count.((p * nk) + k) in
      if c > 0 then
        b :=
          if units.(k) = 0 then max_int
          else Int.max !b ((c + units.(k) - 1) / units.(k))
    done;
    !b
  in
  let rec sum p acc =
    if p > np then acc
    else if cp.(p) = 0 then sum (p + 1) acc
    else
      let best =
        List.fold_left
          (fun m units -> Int.min m (serial p units))
          max_int (Lazy.force subsets)
      in
      if best = max_int then max_int
      else sum (p + 1) (acc + Int.max best cp.(p))
  in
  sum 1 0

let refuted spec part =
  (not (respects_order spec part))
  || memory_peak spec part > spec.Spec.scratch
  || steps_lower_bound spec part > Spec.num_steps spec

let fold ~max_assignments spec f init =
  let g = spec.Spec.graph in
  let np = spec.Spec.num_partitions in
  let part = Array.make (G.num_tasks g) 0 in
  let count = ref 0 in
  let rec go acc = function
    | [] ->
      incr count;
      if !count > max_assignments then
        invalid_arg "Enumerate: assignment space too large";
      f part acc
    | t :: rest ->
      let acc = ref acc in
      let lo =
        List.fold_left (fun m t' -> Int.max m part.(t')) 1 (G.task_preds g t)
      in
      for p = lo to np do
        part.(t) <- p;
        acc := go !acc rest
      done;
      part.(t) <- 0;
      !acc
  in
  go init (Taskgraph.Topo.task_order g)
