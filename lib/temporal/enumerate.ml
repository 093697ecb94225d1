module G = Taskgraph.Graph

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
  match try_schedule ?max_backtracks ?deadline spec part with
  | Some schedule -> `Schedule schedule
  | None -> `Infeasible
  | exception Backtrack_budget -> `Gave_up

(* The order-respecting maps that fit the scratch memory, in increasing
   communication cost; the first one the scheduler completes is
   optimal. The counting bound is not applied: this oracle must not
   share the completion hook's bound. *)
let solve ?(max_assignments = 200_000) spec =
  Maps.fold ~max_assignments spec
    (fun part acc ->
      let cost = Solution.comm_cost_of_partition spec part in
      if Maps.memory_peak spec part <= spec.Spec.scratch then
        (cost, Array.copy part) :: acc
      else acc)
    []
  |> List.sort (fun (c1, _) (c2, _) -> compare c1 c2)
  |> List.find_map (fun (_, part) ->
         Option.map (Solution.of_schedule spec part) (try_schedule spec part))

let optimal_cost ?max_assignments spec =
  Option.map (fun s -> s.Solution.comm_cost) (solve ?max_assignments spec)
