module G = Taskgraph.Graph

type constraints = { capacity : int; alpha : float; max_steps : int }

type segmentation = { segments : G.task_id list list; comm_cost : int }

let comm_cost_of_segments g segments =
  let seg_of = Hashtbl.create 16 in
  List.iteri
    (fun si tasks -> List.iter (fun t -> Hashtbl.replace seg_of t si) tasks)
    segments;
  List.fold_left
    (fun acc (t1, t2, bw) ->
      match (Hashtbl.find_opt seg_of t1, Hashtbl.find_opt seg_of t2) with
      | Some s1, Some s2 -> acc + (bw * abs (s2 - s1))
      | _ -> acc)
    0 (G.task_edges g)

(* All sub-allocations of [alloc] (each kind taken 0..n times) that fit
   the alpha-scaled capacity, cheapest first. *)
let sub_allocations alloc c =
  let rec expand = function
    | [] -> [ [] ]
    | (k, n) :: rest ->
      let tails = expand rest in
      List.concat_map
        (fun count ->
          if count = 0 then tails
          else List.map (fun t -> (k, count) :: t) tails)
        (List.init (n + 1) Fun.id)
    [@warning "-27"]
  in
  expand alloc
  |> List.filter (fun a ->
         c.alpha *. Float.of_int (Component.total_fg a)
         <= Float.of_int c.capacity)
  |> List.sort (fun a b -> compare (Component.total_fg a) (Component.total_fg b))

(* A segment fits when some capacity-feasible sub-allocation schedules
   its operations within the step budget. Trying the cheapest first also
   makes the estimator prefer small functional-unit sets, mirroring the
   resource constraint (eq. 11) on the units actually used. *)
let segment_fits g alloc c tasks =
  let ops = List.concat_map (G.task_ops g) tasks in
  List.exists
    (fun sub ->
      sub <> []
      &&
      match List_scheduler.schedule ~restrict:ops g sub with
      | None -> false
      | Some b -> List_scheduler.length b <= c.max_steps)
    (sub_allocations alloc c)

let estimate g alloc c =
  let order = Taskgraph.Topo.task_order g in
  let rec pack segments current = function
    | [] ->
      let segments =
        List.rev (if current = [] then segments else List.rev current :: segments)
      in
      Some segments
    | t :: rest ->
      if segment_fits g alloc c (t :: current) then
        pack segments (t :: current) rest
      else if current = [] then None (* a single task does not fit *)
      else if segment_fits g alloc c [ t ] then
        pack (List.rev current :: segments) [ t ] rest
      else None
  in
  match pack [] [] order with
  | None -> None
  | Some segments ->
    Some { segments; comm_cost = comm_cost_of_segments g segments }

let num_segments s = List.length s.segments

let pp ppf s =
  Format.fprintf ppf "%d segments (comm %d):" (num_segments s) s.comm_cost;
  List.iteri
    (fun i tasks ->
      Format.fprintf ppf " [%d:%a]" (i + 1)
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
           Format.pp_print_int)
        tasks)
    s.segments
