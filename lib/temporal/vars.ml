module G = Taskgraph.Graph
module Lp = Ilp.Lp

type linearization = Fortet | Glover

type options = {
  linearization : linearization;
  tighten : bool;
  literal_cs_exclusion : bool;
  aggregate_o : bool;
  step_cuts : bool;
}

type t = {
  spec : Spec.t;
  options : options;
  lp : Lp.t;
  y : Lp.var array array;
  x : (int * int * Lp.var) list array;
  w : (int * int * int, Lp.var) Hashtbl.t;
  u : Lp.var array array;
  o : Lp.var option array array;
  c : Lp.var option array array;
  z : Lp.var option array array array;
  s : Lp.var array array option;
}

let create ~options spec =
  let g = spec.Spec.graph in
  let nt = G.num_tasks g in
  let nf = Spec.num_instances spec in
  let np = spec.Spec.num_partitions in
  let ns = Spec.num_steps spec in
  let lp = Lp.create ~name:(G.name g) () in
  let y =
    Array.init nt (fun t ->
        Array.init np (fun p ->
            Lp.add_var lp ~name:(Printf.sprintf "y_t%d_p%d" t (p + 1)) Lp.Binary))
  in
  let x =
    Array.init (G.num_ops g) (fun i ->
        let lo, hi = Spec.window spec i in
        let fus = Spec.fu_of_op spec i in
        List.concat
          (List.init (hi - lo + 1) (fun dj ->
               let j = lo + dj in
               List.filter_map
                 (fun k ->
                   (* an issue at j must complete within the schedule *)
                   if j + Spec.instance_latency spec k - 1 > ns then None
                   else
                     Some
                       ( j,
                         k,
                         Lp.add_var lp
                           ~name:(Printf.sprintf "x_i%d_j%d_k%d" i j k)
                           Lp.Binary ))
                 fus)))
  in
  let w = Hashtbl.create 64 in
  List.iter
    (fun (t1, t2, _) ->
      for p = 2 to np do
        Hashtbl.replace w (p, t1, t2)
          (Lp.add_var lp ~name:(Printf.sprintf "w_p%d_t%d_t%d" p t1 t2) Lp.Binary)
      done)
    (G.task_edges g);
  let u =
    Array.init np (fun p ->
        Array.init nf (fun k ->
            Lp.add_var lp ~name:(Printf.sprintf "u_p%d_k%d" (p + 1) k) Lp.Binary))
  in
  (* o_tk exists iff some operation of t can execute on k *)
  let task_can_use = Array.make_matrix nt nf false in
  Array.iteri
    (fun i entries ->
      let t = G.op_task g i in
      List.iter (fun (_, k, _) -> task_can_use.(t).(k) <- true) entries)
    x;
  let o =
    Array.init nt (fun t ->
        Array.init nf (fun k ->
            if task_can_use.(t).(k) then
              Some (Lp.add_var lp ~name:(Printf.sprintf "o_t%d_k%d" t k) Lp.Binary)
            else None))
  in
  (* c_tj exists iff some op of t can be executing during step j
     (multicycle ops occupy all steps of their latency) *)
  let task_step = Array.make_matrix nt ns false in
  Array.iteri
    (fun i entries ->
      let t = G.op_task g i in
      List.iter
        (fun (j, k, _) ->
          for j' = j to Int.min ns (j + Spec.instance_latency spec k - 1) do
            task_step.(t).(j' - 1) <- true
          done)
        entries)
    x;
  let c =
    Array.init nt (fun t ->
        Array.init ns (fun j0 ->
            if task_step.(t).(j0) then
              Some
                (Lp.add_var lp ~ub:1.
                   ~name:(Printf.sprintf "c_t%d_j%d" t (j0 + 1))
                   Lp.Continuous)
            else None))
  in
  let z =
    Array.init np (fun p ->
        Array.init nt (fun t ->
            Array.init nf (fun k ->
                if task_can_use.(t).(k) then
                  Some
                    (Lp.add_var lp ~ub:1.
                       ~name:(Printf.sprintf "z_p%d_t%d_k%d" (p + 1) t k)
                       (if options.linearization = Fortet then Lp.Binary
                        else Lp.Continuous))
                else None)))
  in
  let s =
    if not options.literal_cs_exclusion then
      Some
        (Array.init np (fun p ->
             Array.init ns (fun j0 ->
                 Lp.add_var lp ~ub:1.
                   ~name:(Printf.sprintf "s_p%d_j%d" (p + 1) (j0 + 1))
                   Lp.Continuous)))
    else None
  in
  { spec; options; lp; y; x; w; u; o; c; z; s }

let w_var t p t1 t2 =
  match Hashtbl.find_opt t.w (p, t1, t2) with
  | Some v -> v
  | None -> raise Not_found

let y_value t sol task =
  let best = ref 1 and best_v = ref Float.neg_infinity in
  Array.iteri
    (fun p0 (v : Lp.var) ->
      let value = sol.((v :> int)) in
      if value > !best_v +. 1e-9 then begin
        best := p0 + 1;
        best_v := value
      end)
    t.y.(task);
  !best

let x_value t sol i =
  let best = ref (0, 0) and best_v = ref Float.neg_infinity in
  List.iter
    (fun (j, k, (v : Lp.var)) ->
      let value = sol.((v :> int)) in
      if value > !best_v +. 1e-9 then begin
        best := (j, k);
        best_v := value
      end)
    t.x.(i);
  !best

let num_vars t = Lp.num_vars t.lp

let num_constrs t = Lp.num_constrs t.lp
