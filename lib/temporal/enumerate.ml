module G = Taskgraph.Graph
module C = Hls.Component

(* All task->partition maps satisfying temporal order (eq. 2) and scratch
   memory (eq. 3), with their communication costs. *)
let assignments spec ~max_assignments =
  let g = spec.Spec.graph in
  let nt = G.num_tasks g in
  let np = spec.Spec.num_partitions in
  let order = Taskgraph.Topo.task_order g in
  let part = Array.make nt 0 in
  let acc = ref [] in
  let count = ref 0 in
  let rec go = function
    | [] ->
      incr count;
      if !count > max_assignments then
        invalid_arg "Enumerate: assignment space too large";
      let cost = Solution.comm_cost_of_partition spec part in
      if Solution.memory_peak spec part <= spec.Spec.scratch then
        acc := (cost, Array.copy part) :: !acc
    | t :: rest ->
      let min_p =
        List.fold_left
          (fun m t' -> Int.max m part.(t'))
          1 (G.task_preds g t)
      in
      for p = min_p to np do
        part.(t) <- p;
        go rest
      done;
      part.(t) <- 0
  in
  go order;
  List.sort (fun (c1, _) (c2, _) -> compare c1 c2) !acc

(* Cheap schedulability lower bound for a fixed partition map: every
   partition needs at least as many owned control steps as (a) its
   longest intra-partition dependency chain and (b) the best per-kind
   serialization any capacity-feasible covering unit subset allows.
   Subsets are enumerated exactly (the allocation is a small multiset),
   so the joint effect of covering several kinds within the budget is
   captured — e.g. a partition holding add, mul and sub operations at a
   budget that only fits one unit of each serializes all three kinds.
   The partitions own disjoint steps, so the bounds add up; exceeding
   the step budget refutes the map without any search. *)
let steps_lower_bound spec part =
  let g = spec.Spec.graph in
  let np = spec.Spec.num_partitions in
  let budget = Float.of_int spec.Spec.capacity /. spec.Spec.alpha in
  let groups = Spec.unit_groups spec in
  let total = ref 0 in
  let infeasible = ref false in
  for p = 1 to np do
    let ops =
      List.concat_map
        (fun t -> if part.(t) = p then G.task_ops g t else [])
        (List.init (G.num_tasks g) Fun.id)
    in
    if ops <> [] then begin
      let kinds = List.sort_uniq compare (List.map (G.op_kind g) ops) in
      let count kind =
        List.length (List.filter (fun i -> G.op_kind g i = kind) ops)
      in
      let counts = List.map (fun k -> (k, count k)) kinds in
      (* enumerate sub-multisets of the unit groups; track the best
         (smallest) per-kind serialization bound among feasible ones *)
      let best = ref max_int in
      let rec choose acc_fg acc_units = function
        | [] ->
          if Float.of_int acc_fg <= budget +. 1e-9 then begin
            (* capable unit count per kind *)
            let bound =
              List.fold_left
                (fun worst (kind, cnt) ->
                  let units =
                    List.fold_left
                      (fun n (fu, taken) ->
                        if taken > 0 && C.can_execute fu kind then n + taken
                        else n)
                      0 acc_units
                  in
                  if units = 0 then max_int
                  else Int.max worst ((cnt + units - 1) / units))
                0 counts
            in
            if bound < !best then best := bound
          end
        | (fu, avail) :: rest ->
          for taken = 0 to avail do
            if Float.of_int (acc_fg + (taken * fu.C.fg)) <= budget +. 1e-9 then
              choose (acc_fg + (taken * fu.C.fg)) ((fu, taken) :: acc_units) rest
          done
      in
      choose 0 [] groups;
      if !best = max_int then infeasible := true
      else begin
        (* intra-partition critical path (optimistic unit latencies) *)
        let in_p = Array.make (G.num_ops g) false in
        List.iter (fun i -> in_p.(i) <- true) ops;
        let depth = Hashtbl.create 16 in
        let rec d i =
          match Hashtbl.find_opt depth i with
          | Some v -> v
          | None ->
            let v =
              1
              + List.fold_left
                  (fun acc pr -> if in_p.(pr) then Int.max acc (d pr) else acc)
                  0 (G.op_preds g i)
            in
            Hashtbl.replace depth i v;
            v
        in
        let cp_bound = List.fold_left (fun acc i -> Int.max acc (d i)) 0 ops in
        total := !total + Int.max !best cp_bound
      end
    end
  done;
  if !infeasible then max_int else !total

exception Backtrack_budget

(* Exact backtracking scheduler for a fixed partition map.

   Search order matters enormously here: operations are processed in a
   fail-first topological order (sorted by ALAP — always topologically
   consistent since a predecessor's ALAP is strictly smaller than its
   successor's), and every placement is forward-checked against the
   windows of the direct successors, which prunes most dead branches
   immediately. Per operation, issue steps are tried in increasing
   order and capable units in increasing instance id.

   Every lookup the search repeats is read from a flat table built
   once per call (or once per spec, in [Spec]); steps claimed by a
   placement are recorded on a preallocated stack and released from it
   on backtrack. The wall clock is read every 4096 backtracks, and a
   passed [deadline] aborts the search like an exhausted budget. *)
let try_schedule ?(max_backtracks = max_int) ?(deadline = Float.infinity) spec
    part =
  let g = spec.Spec.graph in
  let n = G.num_ops g in
  let ns = Spec.num_steps spec in
  let nf = Spec.num_instances spec in
  let np = spec.Spec.num_partitions in
  let order =
    let sa = spec.Spec.schedule.Hls.Schedule.alap
    and sp = spec.Spec.schedule.Hls.Schedule.asap in
    Array.of_list
      (List.sort
         (fun a b ->
           match compare sa.(a) sa.(b) with
           | 0 -> (match compare sp.(a) sp.(b) with 0 -> compare a b | c -> c)
           | c -> c)
         (Taskgraph.Topo.op_order g))
  in
  let win_lo = Array.init n (fun i -> fst (Spec.window spec i)) in
  let win_hi = Array.init n (fun i -> snd (Spec.window spec i)) in
  (* forward check: placing i so that its result is ready at [r] leaves
     every direct successor a non-empty window iff [r <= ready_max.(i)] *)
  let ready_max =
    Array.init n (fun i ->
        List.fold_left (fun m sc -> Int.min m win_hi.(sc)) max_int
          (G.op_succs g i))
  in
  let preds = Array.init n (G.op_preds g) in
  let capable = Array.init n (Spec.fu_of_op spec) in
  let op_part = Array.init n (fun i -> part.(G.op_task g i)) in
  let lat = Array.init nf (Spec.instance_latency spec) in
  let span = Array.init nf (Spec.busy_span spec) in
  let fg = Array.init nf (Spec.fg_of_instance spec) in
  let step = Array.make n 0 in
  let fu = Array.make n (-1) in
  (* [busy] is indexed by step and unit, [fu_used] by partition and
     unit, both at [row * nf + k] *)
  let busy = Array.make ((ns + 1) * nf) false in
  let owner = Array.make (ns + 1) 0 (* 0 = unclaimed *) in
  let fu_used = Array.make ((np + 1) * nf) false in
  let fg_used = Array.make (np + 1) 0 in
  (* steps claimed by the live placements; a step is claimed at most once *)
  let claimed = Array.make (ns + 1) 0 in
  let top = ref 0 in
  let backtracks = ref 0 in
  let alpha = spec.Spec.alpha in
  let cap = Float.of_int spec.Spec.capacity in
  (* unit k is free over its busy span [j, last] *)
  let rec unit_free k j last =
    j > last || ((not busy.((j * nf) + k)) && unit_free k (j + 1) last)
  in
  (* every step of [j, last] is unowned or already owned by partition p *)
  let rec claimable p j last =
    j > last || ((owner.(j) = 0 || owner.(j) = p) && claimable p (j + 1) last)
  in
  let rec place idx =
    idx = n
    ||
    let i = order.(idx) in
    (* predecessors' results must be ready: issue >= step + latency *)
    let lo =
      List.fold_left
        (fun m pr -> Int.max m (step.(pr) + lat.(fu.(pr))))
        win_lo.(i) preds.(i)
    in
    try_step idx i op_part.(i) lo
  and try_step idx i p j =
    j <= win_hi.(i) && (try_fu idx i p j capable.(i) || try_step idx i p (j + 1))
  and try_fu idx i p j = function
    | [] -> false
    | k :: rest ->
      let fits =
        j + lat.(k) - 1 <= ns
        && j + lat.(k) <= ready_max.(i)
        && unit_free k j (j + span.(k) - 1)
        && claimable p j (j + lat.(k) - 1)
      in
      if not fits then try_fu idx i p j rest
      else begin
        let newly_used = not fu_used.((p * nf) + k) in
        let fg_delta = if newly_used then fg.(k) else 0 in
        if alpha *. Float.of_int (fg_used.(p) + fg_delta) > cap +. 1e-9 then
          try_fu idx i p j rest
        else begin
          let base = !top in
          for j' = j to j + lat.(k) - 1 do
            if owner.(j') = 0 then begin
              owner.(j') <- p;
              claimed.(!top) <- j';
              incr top
            end
          done;
          for j' = j to j + span.(k) - 1 do
            busy.((j' * nf) + k) <- true
          done;
          if newly_used then begin
            fu_used.((p * nf) + k) <- true;
            fg_used.(p) <- fg_used.(p) + fg_delta
          end;
          step.(i) <- j;
          fu.(i) <- k;
          place (idx + 1)
          || begin
            incr backtracks;
            if
              !backtracks > max_backtracks
              || (!backtracks land 4095 = 0 && Ilp.Mono.now () > deadline)
            then raise Backtrack_budget;
            for j' = j to j + span.(k) - 1 do
              busy.((j' * nf) + k) <- false
            done;
            while !top > base do
              decr top;
              owner.(claimed.(!top)) <- 0
            done;
            if newly_used then begin
              fu_used.((p * nf) + k) <- false;
              fg_used.(p) <- fg_used.(p) - fg_delta
            end;
            step.(i) <- 0;
            fu.(i) <- -1;
            try_fu idx i p j rest
          end
        end
      end
  in
  if place 0 then Some (step, fu) else None

let schedule_for_partition ?max_backtracks ?deadline spec part =
  if steps_lower_bound spec part > Spec.num_steps spec then `Infeasible
  else
    match try_schedule ?max_backtracks ?deadline spec part with
    | Some (step, fu) -> `Schedule (step, fu)
    | None -> `Infeasible
    | exception Backtrack_budget -> `Gave_up

let solve ?(max_assignments = 200_000) spec =
  let candidates = assignments spec ~max_assignments in
  let rec go = function
    | [] -> None
    | (cost, part) :: rest -> (
      match try_schedule spec part with
      | Some (step, fu) ->
        let module S = Set.Make (Int) in
        let used = Array.fold_left (fun s p -> S.add p s) S.empty part in
        Some
          {
            Solution.partition_of = part;
            op_step = step;
            op_fu = fu;
            comm_cost = cost;
            partitions_used = S.cardinal used;
          }
      | None -> go rest)
  in
  go candidates

let optimal_cost ?max_assignments spec =
  Option.map (fun s -> s.Solution.comm_cost) (solve ?max_assignments spec)
