module G = Taskgraph.Graph
module Lp = Ilp.Lp

type linearization = Vars.linearization = Fortet | Glover

type options = Vars.options = {
  linearization : linearization;
  tighten : bool;
  literal_cs_exclusion : bool;
  aggregate_o : bool;
  step_cuts : bool;
}

let default_options =
  {
    linearization = Glover;
    tighten = true;
    literal_cs_exclusion = false;
    aggregate_o = true;
    step_cuts = true;
  }

let base_options =
  { default_options with
    tighten = false; step_cuts = false; aggregate_o = false }

let tightened_options =
  { default_options with step_cuts = false; aggregate_o = false }

let build ?(options = default_options) spec =
  let g = spec.Spec.graph in
  let np = spec.Spec.num_partitions in
  let ns = Spec.num_steps spec in
  let nf = Spec.num_instances spec in
  let nt = G.num_tasks g in
  let vars = Vars.create ~options spec in
  let lp = vars.Vars.lp in
  let cstr ?name terms sense rhs = ignore (Lp.add_constr lp ?name terms sense rhs) in
  (* --- Temporal partitioning ------------------------------------- *)
  (* (1) each task in exactly one partition *)
  for t = 0 to nt - 1 do
    cstr
      ~name:(Printf.sprintf "uniq_t%d" t)
      (Array.to_list (Array.map (fun v -> (1., v)) vars.Vars.y.(t)))
      Lp.Eq 1.
  done;
  (* (2) temporal order along every task edge *)
  List.iter
    (fun (t1, t2, _) ->
      for p2 = 1 to np - 1 do
        let terms = ref [ (1., vars.Vars.y.(t2).(p2 - 1)) ] in
        for p1 = p2 + 1 to np do
          terms := (1., vars.Vars.y.(t1).(p1 - 1)) :: !terms
        done;
        cstr
          ~name:(Printf.sprintf "order_t%d_t%d_p%d" t1 t2 p2)
          !terms Lp.Le 1.
      done)
    (G.task_edges g);
  (* (31) compact linearization of the communication variables *)
  List.iter
    (fun (t1, t2, _) ->
      for p = 2 to np do
        let terms = ref [ (-1., Vars.w_var vars p t1 t2) ] in
        for p1 = 1 to p - 1 do
          terms := (1., vars.Vars.y.(t1).(p1 - 1)) :: !terms
        done;
        for p2 = p to np do
          terms := (1., vars.Vars.y.(t2).(p2 - 1)) :: !terms
        done;
        cstr ~name:(Printf.sprintf "wdef_p%d_t%d_t%d" p t1 t2) !terms Lp.Le 1.
      done)
    (G.task_edges g);
  (* (3) scratch memory per partition boundary *)
  if np >= 2 then
    for p = 2 to np do
      let terms =
        List.map
          (fun (t1, t2, bw) -> (Float.of_int bw, Vars.w_var vars p t1 t2))
          (G.task_edges g)
      in
      if terms <> [] then
        cstr
          ~name:(Printf.sprintf "mem_p%d" p)
          terms Lp.Le
          (Float.of_int spec.Spec.scratch)
    done;
  (* --- Synthesis --------------------------------------------------- *)
  (* (6) unique operation assignment *)
  Array.iteri
    (fun i entries ->
      cstr
        ~name:(Printf.sprintf "assign_i%d" i)
        (List.map (fun (_, _, v) -> (1., v)) entries)
        Lp.Eq 1.)
    vars.Vars.x;
  (* (7) one operation per functional unit per step; a non-pipelined
     multicycle unit is occupied for its full latency *)
  let per_jk = Hashtbl.create 256 in
  Array.iter
    (List.iter (fun (j, k, v) ->
         for j' = j to Int.min ns (j + Spec.busy_span spec k - 1) do
           Hashtbl.replace per_jk (j', k)
             ((1., v)
              :: Option.value ~default:[] (Hashtbl.find_opt per_jk (j', k)))
         done))
    vars.Vars.x;
  for j = 1 to ns do
    for k = 0 to nf - 1 do
      match Hashtbl.find_opt per_jk (j, k) with
      | Some terms when List.length terms >= 2 ->
        cstr ~name:(Printf.sprintf "map_j%d_k%d" j k) terms Lp.Le 1.
      | Some _ | None -> ()
    done
  done;
  (* (8) dependency: i2 cannot issue before i1's result. With unit
     latencies this is the paper's pairwise form; with multicycle units
     the producer's terms are grouped by latency so that each row
     forbids issue overlaps for that latency class. *)
  List.iter
    (fun (i1, i2) ->
      let lo2, hi2 = Spec.window spec i2 in
      (* group x(i1) by (issue step, latency) *)
      let groups = Hashtbl.create 8 in
      List.iter
        (fun (j, k, v) ->
          let key = (j, Spec.instance_latency spec k) in
          Hashtbl.replace groups key
            (v :: Option.value ~default:[] (Hashtbl.find_opt groups key)))
        vars.Vars.x.(i1);
      Hashtbl.iter
        (fun (j1, lat1) sum1 ->
          for j2 = lo2 to Int.min hi2 (j1 + lat1 - 1) do
            let sum2 =
              List.filter_map
                (fun (j, _, v) -> if j = j2 then Some (1., v) else None)
                vars.Vars.x.(i2)
            in
            if sum2 <> [] then
              cstr
                ~name:(Printf.sprintf "dep_i%d_i%d_j%d_j%d" i1 i2 j1 j2)
                (List.map (fun v -> (1., v)) sum1 @ sum2)
                Lp.Le 1.
          done)
        groups)
    (G.op_deps g);
  (* --- Coupling: o, z, u ------------------------------------------ *)
  (* (26)-(27): o_tk is the OR of the x_ijk of task t on unit k *)
  for t = 0 to nt - 1 do
    for k = 0 to nf - 1 do
      match vars.Vars.o.(t).(k) with
      | None -> ()
      | Some o_tk ->
        let xs =
          List.concat_map
            (fun i ->
              List.filter_map
                (fun (_, k', v) -> if k' = k then Some v else None)
                vars.Vars.x.(i))
            (G.task_ops g t)
        in
        (if options.aggregate_o then
           (* (26'), aggregated: each operation is scheduled exactly once
              (eq. 6), so o >= sum_j x_ijk is valid and tighter than the
              paper's per-step o >= x_ijk, with one row per (op, unit) *)
           List.iter
             (fun i ->
               let xs_i =
                 List.filter_map
                   (fun (_, k', v) -> if k' = k then Some (-1., v) else None)
                   vars.Vars.x.(i)
               in
               if xs_i <> [] then cstr ((1., o_tk) :: xs_i) Lp.Ge 0.)
             (G.task_ops g t)
         else
           List.iter
             (fun xv ->
               cstr (* (26) o >= x *)
                 [ (1., o_tk); (-1., xv) ]
                 Lp.Ge 0.)
             xs);
        (* (27) o <= sum x *)
        cstr
          ~name:(Printf.sprintf "o_ub_t%d_k%d" t k)
          ((-1., o_tk) :: List.map (fun v -> (1., v)) xs)
          Lp.Ge 0.
    done
  done;
  (* z products and u coupling *)
  for p = 1 to np do
    for k = 0 to nf - 1 do
      let u_pk = vars.Vars.u.(p - 1).(k) in
      let zs = ref [] in
      for t = 0 to nt - 1 do
        match (vars.Vars.o.(t).(k), vars.Vars.z.(p - 1).(t).(k)) with
        | Some o_tk, Some z_ptk ->
          let y_tp = vars.Vars.y.(t).(p - 1) in
          zs := z_ptk :: !zs;
          (* (15)/(19): z >= y + o - 1 *)
          cstr [ (1., y_tp); (1., o_tk); (-1., z_ptk) ] Lp.Le 1.;
          (match options.linearization with
           | Glover ->
             (* (20)-(21): z <= o, z <= y *)
             cstr [ (1., o_tk); (-1., z_ptk) ] Lp.Ge 0.;
             cstr [ (1., y_tp); (-1., z_ptk) ] Lp.Ge 0.
           | Fortet ->
             (* (16): 2z <= y + o *)
             cstr [ (-1., y_tp); (-1., o_tk); (2., z_ptk) ] Lp.Le 0.);
          (* (22): u >= z *)
          cstr [ (1., u_pk); (-1., z_ptk) ] Lp.Ge 0.
        | _ -> ()
      done;
      (* (23): u <= sum_t z (u = 0 when no task uses k on p) *)
      cstr
        ~name:(Printf.sprintf "u_ub_p%d_k%d" p k)
        ((-1., u_pk) :: List.map (fun z -> (1., z)) !zs)
        Lp.Ge 0.
    done
  done;
  (* (11) FPGA resource capacity per partition *)
  for p = 1 to np do
    let terms =
      List.init nf (fun k ->
          ( spec.Spec.alpha *. Float.of_int (Spec.fg_of_instance spec k),
            vars.Vars.u.(p - 1).(k) ))
    in
    cstr
      ~name:(Printf.sprintf "cap_p%d" p)
      terms Lp.Le
      (Float.of_int spec.Spec.capacity)
  done;
  (* (12) c_tj >= the x variables under which op i of task t is
     executing during step j (all latency steps count as occupancy) *)
  Array.iteri
    (fun i entries ->
      let t = G.op_task g i in
      let by_step = Hashtbl.create 8 in
      List.iter
        (fun (j, k, v) ->
          for j' = j to Int.min ns (j + Spec.instance_latency spec k - 1) do
            Hashtbl.replace by_step j'
              ((-1., v)
               :: Option.value ~default:[] (Hashtbl.find_opt by_step j'))
          done)
        entries;
      Hashtbl.iter
        (fun j terms ->
          match vars.Vars.c.(t).(j - 1) with
          | Some c_tj ->
            cstr
              ~name:(Printf.sprintf "c_def_i%d_j%d" i j)
              ((1., c_tj) :: terms)
              Lp.Ge 0.
          | None -> assert false)
        by_step)
    vars.Vars.x;
  (* (13) control-step exclusivity between partitions *)
  (match vars.Vars.s with
   | Some s ->
     (* compact: s_pj >= c_tj + y_tp - 1, sum_p s_pj <= 1 *)
     for t = 0 to nt - 1 do
       for j = 1 to ns do
         match vars.Vars.c.(t).(j - 1) with
         | None -> ()
         | Some c_tj ->
           for p = 1 to np do
             cstr
               [ (1., c_tj); (1., vars.Vars.y.(t).(p - 1));
                 (-1., s.(p - 1).(j - 1)) ]
               Lp.Le 1.
           done
       done
     done;
     for j = 1 to ns do
       cstr
         ~name:(Printf.sprintf "excl_j%d" j)
         (List.init np (fun p0 -> (1., s.(p0).(j - 1))))
         Lp.Le 1.
     done
   | None ->
     (* literal eq. 13: pairwise over tasks and partitions *)
     for t1 = 0 to nt - 1 do
       for t2 = 0 to nt - 1 do
         if t1 < t2 then
           for j = 1 to ns do
             match (vars.Vars.c.(t1).(j - 1), vars.Vars.c.(t2).(j - 1)) with
             | Some c1, Some c2 ->
               for p1 = 1 to np do
                 for p2 = 1 to np do
                   if p1 <> p2 then
                     cstr
                       [ (1., c1); (1., vars.Vars.y.(t1).(p1 - 1)); (1., c2);
                         (1., vars.Vars.y.(t2).(p2 - 1)) ]
                       Lp.Le 3.
                 done
               done
             | _ -> ()
           done
       done
     done);
  (* --- Tightening cuts (Section 6) --------------------------------- *)
  if options.tighten then begin
    List.iter
      (fun (t1, t2, _) ->
        for p1 = 2 to np do
          let w = Vars.w_var vars p1 t1 t2 in
          (* (28): t1 at p >= p1 forbids crossing boundary p1 *)
          let terms = ref [ (1., w) ] in
          for p = p1 to np do
            terms := (1., vars.Vars.y.(t1).(p - 1)) :: !terms
          done;
          cstr ~name:(Printf.sprintf "cut28_p%d_t%d_t%d" p1 t1 t2) !terms Lp.Le 1.;
          (* (29): t2 at p < p1 forbids crossing boundary p1 *)
          let terms = ref [ (1., w) ] in
          for p = 1 to p1 - 1 do
            terms := (1., vars.Vars.y.(t2).(p - 1)) :: !terms
          done;
          cstr ~name:(Printf.sprintf "cut29_p%d_t%d_t%d" p1 t1 t2) !terms Lp.Le 1.;
          (* (30): both tasks in the same partition forbid every crossing *)
          for p = 1 to np do
            if p <> p1 then
              cstr
                [ (1., vars.Vars.y.(t1).(p - 1)); (1., vars.Vars.y.(t2).(p - 1));
                  (1., w) ]
                Lp.Le 2.
          done
        done)
      (G.task_edges g);
    (* (32): task t on partition p using unit k forces u_pk *)
    for t = 0 to nt - 1 do
      for k = 0 to nf - 1 do
        match vars.Vars.o.(t).(k) with
        | None -> ()
        | Some o_tk ->
          for p = 1 to np do
            cstr
              [ (1., o_tk); (1., vars.Vars.y.(t).(p - 1));
                (-1., vars.Vars.u.(p - 1).(k)) ]
              Lp.Le 1.
          done
      done
    done
  end;
  (* --- Step-ownership cuts (ours, see DESIGN.md) -------------------- *)
  (match vars.Vars.s with
   | Some s when options.step_cuts ->
     (* Intra-task critical path of each task: a partition owning task t
        owns at least that many control steps. *)
     let intra_cp t =
       let ops = G.task_ops g t in
       let depth = Hashtbl.create 8 in
       let rec d i =
         match Hashtbl.find_opt depth i with
         | Some v -> v
         | None ->
           let v =
             1
             + List.fold_left
                 (fun acc pr ->
                   if G.op_task g pr = t then Int.max acc (d pr) else acc)
                 0 (G.op_preds g i)
           in
           Hashtbl.replace depth i v;
           v
       in
       List.fold_left (fun acc i -> Int.max acc (d i)) 0 ops
     in
     for t = 0 to nt - 1 do
       let cp_t = intra_cp t in
       if cp_t > 1 then
         for p = 1 to np do
           cstr
             ~name:(Printf.sprintf "cut_cp_t%d_p%d" t p)
             ((Float.of_int (-cp_t), vars.Vars.y.(t).(p - 1))
             :: List.init ns (fun j0 -> (1., s.(p - 1).(j0))))
             Lp.Ge 0.
         done
     done;
     (* Owned steps bound the executable operation count, per kind and
        in total. *)
     let insts = Spec.instances spec in
     let capable kind =
       Array.fold_left
         (fun acc inst ->
           if Hls.Component.can_execute inst.Hls.Component.inst_kind kind then
             acc + 1
           else acc)
         0 insts
     in
     let kinds = G.kind_counts g in
     for p = 1 to np do
       let steps = List.init ns (fun j0 -> s.(p - 1).(j0)) in
       (* total *)
       cstr
         ~name:(Printf.sprintf "cut_opcount_p%d" p)
         (List.map (fun sv -> (Float.of_int nf, sv)) steps
         @ (List.init nt (fun t ->
                ( Float.of_int (-(List.length (G.task_ops g t))),
                  vars.Vars.y.(t).(p - 1) ))
           |> List.filter (fun (c, _) -> c <> 0.)))
         Lp.Ge 0.;
       (* per kind *)
       List.iter
         (fun (kind, _) ->
           let cap = capable kind in
           let ops_of_kind t =
             List.length
               (List.filter (fun i -> G.op_kind g i = kind) (G.task_ops g t))
           in
           cstr
             ~name:
               (Printf.sprintf "cut_%s_p%d" (G.op_kind_to_string kind) p)
             (List.map (fun sv -> (Float.of_int cap, sv)) steps
             @ (List.init nt (fun t ->
                    (Float.of_int (-ops_of_kind t), vars.Vars.y.(t).(p - 1)))
               |> List.filter (fun (c, _) -> c <> 0.)))
             Lp.Ge 0.)
         kinds
     done
   | Some _ | None -> ());
  (* --- Cost function (14) ------------------------------------------ *)
  let obj =
    List.concat_map
      (fun (t1, t2, bw) ->
        List.init (Int.max 0 (np - 1)) (fun p0 ->
            (Float.of_int bw, Vars.w_var vars (p0 + 2) t1 t2)))
      (G.task_edges g)
  in
  Lp.set_objective lp obj;
  vars

let explain_w spec =
  let g = spec.Spec.graph in
  let np = spec.Spec.num_partitions in
  let buf_for p t1 t2 =
    let b = Buffer.create 64 in
    Buffer.add_string b (Printf.sprintf "w_%d_%d_%d >= " p t1 t2);
    for p1 = 1 to p - 1 do
      Buffer.add_string b (Printf.sprintf "y_%d_%d + " t1 p1)
    done;
    for p2 = p to np do
      Buffer.add_string b (Printf.sprintf "y_%d_%d + " t2 p2)
    done;
    Buffer.add_string b "(-1)";
    Buffer.contents b
  in
  List.concat_map
    (fun (t1, t2, _) ->
      List.init (Int.max 0 (np - 1)) (fun p0 ->
          let p = p0 + 2 in
          (p, t1, t2, buf_for p t1 t2)))
    (G.task_edges g)
  |> List.sort compare
