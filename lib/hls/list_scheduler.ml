module G = Taskgraph.Graph

type binding = { step : int array; fu : int array; finish : int array }

(* Longest path to a sink, within the restricted op set (unit-latency
   heights — a priority heuristic only). *)
let heights g in_set =
  let n = G.num_ops g in
  let h = Array.make n 0 in
  let order = List.rev (Taskgraph.Topo.op_order g) in
  List.iter
    (fun i ->
      if in_set.(i) then
        List.iter
          (fun s -> if in_set.(s) && h.(s) + 1 > h.(i) then h.(i) <- h.(s) + 1)
          (G.op_succs g i))
    order;
  h

let schedule ?restrict g alloc =
  let n = G.num_ops g in
  let in_set = Array.make n false in
  (match restrict with
   | None -> Array.fill in_set 0 n true
   | Some ops -> List.iter (fun i -> in_set.(i) <- true) ops);
  let insts = Component.instances alloc in
  let nf = Array.length insts in
  let capable op =
    Array.exists (fun i -> Component.can_execute i.Component.inst_kind op) insts
  in
  let coverage_ok =
    let ok = ref true in
    for i = 0 to n - 1 do
      if in_set.(i) && not (capable (G.op_kind g i)) then ok := false
    done;
    !ok
  in
  if not coverage_ok then None
  else begin
    let h = heights g in_set in
    let step = Array.make n (-1) and fu = Array.make n (-1) in
    let finish = Array.make n (-1) in
    let ready_at = Array.make n 1 in
    (* Remaining unscheduled predecessors inside the set. *)
    let pending = Array.make n 0 in
    for i = 0 to n - 1 do
      if in_set.(i) then
        pending.(i) <-
          List.length (List.filter (fun p -> in_set.(p)) (G.op_preds g i))
    done;
    let ready = ref [] in
    let unscheduled = ref 0 in
    for i = n - 1 downto 0 do
      if in_set.(i) then begin
        incr unscheduled;
        if pending.(i) = 0 then ready := i :: !ready
      end
    done;
    let busy_until = Array.make nf 0 in
    let cs = ref 0 in
    while !unscheduled > 0 do
      incr cs;
      (* Highest priority (height, then lower id) first. *)
      let sorted =
        List.sort
          (fun a bx -> match compare h.(bx) h.(a) with 0 -> compare a bx | c -> c)
          !ready
      in
      let issued = Array.make nf false in
      let still_ready = ref [] in
      let scheduled_now = ref [] in
      List.iter
        (fun i ->
          if ready_at.(i) > !cs then still_ready := i :: !still_ready
          else begin
            (* first capable instance free at this step *)
            let rec find k =
              if k >= nf then None
              else if
                (not issued.(k))
                && busy_until.(k) < !cs
                && Component.can_execute insts.(k).Component.inst_kind
                     (G.op_kind g i)
              then Some k
              else find (k + 1)
            in
            match find 0 with
            | Some k ->
              let kind = insts.(k).Component.inst_kind in
              issued.(k) <- true;
              if not kind.Component.pipelined then
                busy_until.(k) <- !cs + kind.Component.latency - 1;
              step.(i) <- !cs;
              fu.(i) <- k;
              finish.(i) <- !cs + kind.Component.latency - 1;
              decr unscheduled;
              scheduled_now := i :: !scheduled_now
            | None -> still_ready := i :: !still_ready
          end)
        sorted;
      (* Release successors; they may issue only after the result. *)
      List.iter
        (fun i ->
          List.iter
            (fun s ->
              if in_set.(s) then begin
                if finish.(i) + 1 > ready_at.(s) then
                  ready_at.(s) <- finish.(i) + 1;
                pending.(s) <- pending.(s) - 1;
                if pending.(s) = 0 then still_ready := s :: !still_ready
              end)
            (G.op_succs g i))
        !scheduled_now;
      ready := !still_ready
    done;
    Some { step; fu; finish }
  end

let length b = Array.fold_left Int.max 0 b.finish

let used_instances b =
  let module S = Set.Make (Int) in
  Array.fold_left (fun s k -> if k >= 0 then S.add k s else s) S.empty b.fu
  |> S.elements

let check_valid ?restrict g alloc b =
  let fail fmt = Format.kasprintf invalid_arg fmt in
  let n = G.num_ops g in
  let in_set = Array.make n false in
  (match restrict with
   | None -> Array.fill in_set 0 n true
   | Some ops -> List.iter (fun i -> in_set.(i) <- true) ops);
  let insts = Component.instances alloc in
  let seen = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    if in_set.(i) then begin
      if b.step.(i) < 1 then fail "op %d unscheduled" i;
      if b.fu.(i) < 0 || b.fu.(i) >= Array.length insts then
        fail "op %d: bad instance %d" i b.fu.(i);
      let kind = insts.(b.fu.(i)).Component.inst_kind in
      if not (Component.can_execute kind (G.op_kind g i)) then
        fail "op %d: incapable instance" i;
      if b.finish.(i) <> b.step.(i) + kind.Component.latency - 1 then
        fail "op %d: finish inconsistent with latency" i;
      (* busy span: issue step only when pipelined, full latency else *)
      let span = if kind.Component.pipelined then 1 else kind.Component.latency in
      for j = b.step.(i) to b.step.(i) + span - 1 do
        let key = (j, b.fu.(i)) in
        if Hashtbl.mem seen key then
          fail "instance %d double-booked at step %d" b.fu.(i) j;
        Hashtbl.add seen key ()
      done
    end
    else if b.step.(i) <> -1 || b.fu.(i) <> -1 then
      fail "op %d outside the restricted set has a schedule entry" i
  done;
  List.iter
    (fun (i1, i2) ->
      if in_set.(i1) && in_set.(i2) && not (b.finish.(i1) < b.step.(i2)) then
        fail "dep %d->%d: consumer issues at %d before result (ready %d)" i1 i2
          b.step.(i2)
          (b.finish.(i1) + 1))
    (G.op_deps g)

let fu_requirements g =
  let s = Schedule.compute g in
  (* concurrency per kind in the ASAP schedule *)
  let max_conc = Hashtbl.create 8 in
  for j = 1 to s.Schedule.cp_length do
    let per_kind = Hashtbl.create 8 in
    Array.iteri
      (fun i a ->
        if a = j then begin
          let k = G.op_kind g i in
          Hashtbl.replace per_kind k
            (1 + Option.value ~default:0 (Hashtbl.find_opt per_kind k))
        end)
      s.Schedule.asap;
    Hashtbl.iter
      (fun k c ->
        if c > Option.value ~default:0 (Hashtbl.find_opt max_conc k) then
          Hashtbl.replace max_conc k c)
      per_kind
  done;
  let cheapest op =
    match
      List.sort
        (fun a b -> compare a.Component.fg b.Component.fg)
        (Component.kinds_for Component.default_library op)
    with
    | [] ->
      Format.kasprintf invalid_arg
        "fu_requirements: no component for %s" (G.op_kind_to_string op)
    | k :: _ -> k
  in
  List.filter_map
    (fun k ->
      match Hashtbl.find_opt max_conc k with
      | Some c when c > 0 -> Some (cheapest k, c)
      | Some _ | None -> None)
    G.all_op_kinds
