module G = Taskgraph.Graph
module Lp = Ilp.Lp
module A = Ilp.Analyze

type finding = { severity : A.severity; code : string; message : string }

type census = {
  var_families : (string * int) list;
  row_families : (string * int) list;
  total_vars : int;
  total_rows : int;
}

type report = {
  findings : finding list;
  census : census;
  actual_vars : int;
  actual_rows : int;
}

(* ------------------------------------------------------------------ *)
(* Closed-form model shape, recomputed from the spec alone             *)
(* ------------------------------------------------------------------ *)

(* Mirror of the variable-existence rules of [Vars.create]: the (step,
   instance) pairs of each operation, task/unit usability and task/step
   occupancy. The audit derives every expected count from these. *)
type shape = {
  x_ent : (int * int) list array;  (* per op: (j, k) with a live x var *)
  can_use : bool array array;  (* (t, k): some op of t can run on k *)
  task_step : bool array array;  (* (t, j-1): t occupies step j *)
}

let shape_of spec =
  let g = spec.Spec.graph in
  let ns = Spec.num_steps spec in
  let nt = G.num_tasks g in
  let nf = Spec.num_instances spec in
  let x_ent =
    Array.init (G.num_ops g) (fun i ->
        let lo, hi = Spec.window spec i in
        List.concat
          (List.init (hi - lo + 1) (fun dj ->
               let j = lo + dj in
               List.filter_map
                 (fun k ->
                   if j + Spec.instance_latency spec k - 1 > ns then None
                   else Some (j, k))
                 (Spec.fu_of_op spec i))))
  in
  let can_use = Array.make_matrix nt nf false in
  let task_step = Array.make_matrix nt ns false in
  Array.iteri
    (fun i entries ->
      let t = G.op_task g i in
      List.iter
        (fun (j, k) ->
          can_use.(t).(k) <- true;
          for j' = j to Int.min ns (j + Spec.instance_latency spec k - 1) do
            task_step.(t).(j' - 1) <- true
          done)
        entries)
    x_ent;
  { x_ent; can_use; task_step }

(* Intra-task critical path, as in [Formulation.build]'s step cuts. *)
let intra_cp g t =
  let ops = G.task_ops g t in
  let depth = Hashtbl.create 8 in
  let rec d i =
    match Hashtbl.find_opt depth i with
    | Some v -> v
    | None ->
      let v =
        1
        + List.fold_left
            (fun acc pr -> if G.op_task g pr = t then Int.max acc (d pr) else acc)
            0 (G.op_preds g i)
      in
      Hashtbl.replace depth i v;
      v
  in
  List.fold_left (fun acc i -> Int.max acc (d i)) 0 ops

(* Expected model contents: named rows as a name -> multiplicity table
   (multiplicities can exceed 1, e.g. mixed-latency [dep] rows sharing a
   step pair), unnamed rows as per-family counts, variables as a
   name -> kind table. *)
type expectation = {
  vars : (string, Lp.kind) Hashtbl.t;
  var_fams : (string * int) list;
  named : (string, int) Hashtbl.t;
  row_fams : (string * int) list;  (* family, count — includes unnamed *)
}

let expectation ~options spec =
  let g = spec.Spec.graph in
  let np = spec.Spec.num_partitions in
  let ns = Spec.num_steps spec in
  let nf = Spec.num_instances spec in
  let nt = G.num_tasks g in
  let edges = G.task_edges g in
  let sh = shape_of spec in
  let with_s = not options.Formulation.literal_cs_exclusion in
  let z_kind =
    if options.Formulation.linearization = Formulation.Fortet then Lp.Binary
    else Lp.Continuous
  in
  (* ---- variables -------------------------------------------------- *)
  let vars = Hashtbl.create 1024 in
  let var_fams = ref [] in
  let fam name count = var_fams := (name, count) :: !var_fams in
  let add_var name kind = Hashtbl.replace vars name kind in
  for t = 0 to nt - 1 do
    for p = 1 to np do
      add_var (Printf.sprintf "y_t%d_p%d" t p) Lp.Binary
    done
  done;
  fam "y" (nt * np);
  Array.iteri
    (fun i entries ->
      List.iter
        (fun (j, k) -> add_var (Printf.sprintf "x_i%d_j%d_k%d" i j k) Lp.Binary)
        entries)
    sh.x_ent;
  fam "x" (Array.fold_left (fun acc e -> acc + List.length e) 0 sh.x_ent);
  List.iter
    (fun (t1, t2, _) ->
      for p = 2 to np do
        add_var (Printf.sprintf "w_p%d_t%d_t%d" p t1 t2) Lp.Binary
      done)
    edges;
  fam "w" (List.length edges * (np - 1));
  for p = 1 to np do
    for k = 0 to nf - 1 do
      add_var (Printf.sprintf "u_p%d_k%d" p k) Lp.Binary
    done
  done;
  fam "u" (np * nf);
  let n_o = ref 0 in
  for t = 0 to nt - 1 do
    for k = 0 to nf - 1 do
      if sh.can_use.(t).(k) then begin
        incr n_o;
        add_var (Printf.sprintf "o_t%d_k%d" t k) Lp.Binary;
        for p = 1 to np do
          add_var (Printf.sprintf "z_p%d_t%d_k%d" p t k) z_kind
        done
      end
    done
  done;
  fam "o" !n_o;
  fam "z" (np * !n_o);
  let n_c = ref 0 in
  for t = 0 to nt - 1 do
    for j = 1 to ns do
      if sh.task_step.(t).(j - 1) then begin
        incr n_c;
        add_var (Printf.sprintf "c_t%d_j%d" t j) Lp.Continuous
      end
    done
  done;
  fam "c" !n_c;
  if with_s then begin
    for p = 1 to np do
      for j = 1 to ns do
        add_var (Printf.sprintf "s_p%d_j%d" p j) Lp.Continuous
      done
    done;
    fam "s" (np * ns)
  end;
  (* ---- rows ------------------------------------------------------- *)
  let named = Hashtbl.create 1024 in
  let row_fams = ref [] in
  let in_fam = ref 0 in
  let expect name =
    incr in_fam;
    Hashtbl.replace named name (1 + Option.value ~default:0 (Hashtbl.find_opt named name))
  in
  let unnamed count = in_fam := !in_fam + count in
  let close_fam name =
    if !in_fam > 0 then row_fams := (name, !in_fam) :: !row_fams;
    in_fam := 0
  in
  (* (1) uniqueness *)
  for t = 0 to nt - 1 do
    expect (Printf.sprintf "uniq_t%d" t)
  done;
  close_fam "uniq";
  (* (2) temporal order *)
  List.iter
    (fun (t1, t2, _) ->
      for p2 = 1 to np - 1 do
        expect (Printf.sprintf "order_t%d_t%d_p%d" t1 t2 p2)
      done)
    edges;
  close_fam "order";
  (* (31) w definitions *)
  List.iter
    (fun (t1, t2, _) ->
      for p = 2 to np do
        expect (Printf.sprintf "wdef_p%d_t%d_t%d" p t1 t2)
      done)
    edges;
  close_fam "wdef";
  (* (3) scratch memory *)
  if np >= 2 && edges <> [] then
    for p = 2 to np do
      expect (Printf.sprintf "mem_p%d" p)
    done;
  close_fam "mem";
  (* (6) assignment *)
  for i = 0 to G.num_ops g - 1 do
    expect (Printf.sprintf "assign_i%d" i)
  done;
  close_fam "assign";
  (* (7) unit occupancy *)
  let occ = Hashtbl.create 256 in
  Array.iter
    (List.iter (fun (j, k) ->
         for j' = j to Int.min ns (j + Spec.busy_span spec k - 1) do
           Hashtbl.replace occ (j', k)
             (1 + Option.value ~default:0 (Hashtbl.find_opt occ (j', k)))
         done))
    sh.x_ent;
  for j = 1 to ns do
    for k = 0 to nf - 1 do
      match Hashtbl.find_opt occ (j, k) with
      | Some n when n >= 2 -> expect (Printf.sprintf "map_j%d_k%d" j k)
      | Some _ | None -> ()
    done
  done;
  close_fam "map";
  (* (8) dependencies *)
  List.iter
    (fun (i1, i2) ->
      let lo2, hi2 = Spec.window spec i2 in
      let groups = Hashtbl.create 8 in
      List.iter
        (fun (j, k) ->
          Hashtbl.replace groups (j, Spec.instance_latency spec k) ())
        sh.x_ent.(i1);
      Hashtbl.iter
        (fun (j1, lat1) () ->
          for j2 = lo2 to Int.min hi2 (j1 + lat1 - 1) do
            if List.exists (fun (j, _) -> j = j2) sh.x_ent.(i2) then
              expect (Printf.sprintf "dep_i%d_i%d_j%d_j%d" i1 i2 j1 j2)
          done)
        groups)
    (G.op_deps g);
  close_fam "dep";
  (* (26)-(27) o coupling *)
  for t = 0 to nt - 1 do
    for k = 0 to nf - 1 do
      if sh.can_use.(t).(k) then begin
        (if options.Formulation.aggregate_o then
           List.iter
             (fun i ->
               if List.exists (fun (_, k') -> k' = k) sh.x_ent.(i) then
                 unnamed 1)
             (G.task_ops g t)
         else
           List.iter
             (fun i ->
               unnamed
                 (List.length (List.filter (fun (_, k') -> k' = k) sh.x_ent.(i))))
             (G.task_ops g t));
        expect (Printf.sprintf "o_ub_t%d_k%d" t k)
      end
    done
  done;
  close_fam "o-coupling";
  (* z linearization and u coupling *)
  let per_z =
    match options.Formulation.linearization with
    | Formulation.Glover -> 4  (* (15), (20), (21), (22) *)
    | Formulation.Fortet -> 3  (* (15), (16), (22) *)
  in
  unnamed (np * !n_o * per_z);
  for p = 1 to np do
    for k = 0 to nf - 1 do
      expect (Printf.sprintf "u_ub_p%d_k%d" p k)
    done
  done;
  close_fam "z/u-coupling";
  (* (11) capacity *)
  for p = 1 to np do
    expect (Printf.sprintf "cap_p%d" p)
  done;
  close_fam "cap";
  (* (12) c definitions *)
  Array.iteri
    (fun i entries ->
      let steps = Hashtbl.create 8 in
      List.iter
        (fun (j, k) ->
          for j' = j to Int.min ns (j + Spec.instance_latency spec k - 1) do
            Hashtbl.replace steps j' ()
          done)
        entries;
      Hashtbl.iter (fun j () -> expect (Printf.sprintf "c_def_i%d_j%d" i j)) steps)
    sh.x_ent;
  close_fam "c_def";
  (* (13) control-step exclusivity *)
  if with_s then begin
    unnamed (np * !n_c);
    for j = 1 to ns do
      expect (Printf.sprintf "excl_j%d" j)
    done
  end
  else
    for t1 = 0 to nt - 1 do
      for t2 = t1 + 1 to nt - 1 do
        for j = 1 to ns do
          if sh.task_step.(t1).(j - 1) && sh.task_step.(t2).(j - 1) then
            unnamed (np * (np - 1))
        done
      done
    done;
  close_fam "excl";
  (* (28)-(32) tightening *)
  if options.Formulation.tighten then begin
    List.iter
      (fun (t1, t2, _) ->
        for p1 = 2 to np do
          expect (Printf.sprintf "cut28_p%d_t%d_t%d" p1 t1 t2);
          expect (Printf.sprintf "cut29_p%d_t%d_t%d" p1 t1 t2);
          unnamed (np - 1) (* (30), one per p <> p1 *)
        done)
      edges;
    unnamed (np * !n_o) (* (32) *)
  end;
  close_fam "tighten";
  (* step-ownership cuts *)
  if with_s && options.Formulation.step_cuts then begin
    for t = 0 to nt - 1 do
      if intra_cp g t > 1 then
        for p = 1 to np do
          expect (Printf.sprintf "cut_cp_t%d_p%d" t p)
        done
    done;
    for p = 1 to np do
      expect (Printf.sprintf "cut_opcount_p%d" p);
      List.iter
        (fun (kind, _) ->
          expect (Printf.sprintf "cut_%s_p%d" (G.op_kind_to_string kind) p))
        (G.kind_counts g)
    done
  end;
  close_fam "step-cuts";
  {
    vars;
    var_fams = List.rev !var_fams;
    named;
    row_fams = List.rev !row_fams;
  }

let census ~options spec =
  let e = expectation ~options spec in
  {
    var_families = e.var_fams;
    row_families = e.row_fams;
    total_vars = List.fold_left (fun acc (_, n) -> acc + n) 0 e.var_fams;
    total_rows = List.fold_left (fun acc (_, n) -> acc + n) 0 e.row_fams;
  }

(* ------------------------------------------------------------------ *)
(* Audit proper                                                        *)
(* ------------------------------------------------------------------ *)

(* Name prefixes the formulation owns. An actual row bearing one of
   these without an expectation entry is a family that should not exist
   under the given options (e.g. tightening rows with [tighten=false]);
   rows with generated [c<n>] default names are the unnamed families and
   are only held to the total census. *)
let owned_prefixes =
  [ "uniq_t"; "order_t"; "wdef_p"; "mem_p"; "assign_i"; "map_j"; "dep_i";
    "o_ub_t"; "u_ub_p"; "cap_p"; "c_def_i"; "excl_j"; "cut28_p"; "cut29_p";
    "cut_" ]

let has_owned_prefix name =
  List.exists
    (fun p ->
      String.length name >= String.length p
      && String.sub name 0 (String.length p) = p)
    owned_prefixes

(* Row-family descriptions by name prefix, most specific first (the
   [cut_*] step-ownership families must win over the bare [cut_]
   catch-all). Used to phrase IIS members and certificate rows in the
   paper's terms rather than raw row indices. *)
let row_descriptions =
  [
    ("uniq_t", "set partitioning: the task lies in exactly one partition (eq. 1)");
    ("order_t", "temporal order along a task edge across a boundary (eq. 2)");
    ("wdef_p", "communication-variable linearization (eq. 31)");
    ("mem_p", "scratch-memory capacity at a partition boundary (eq. 3)");
    ("assign_i", "unique operation assignment within its window (eq. 6)");
    ("map_j", "one operation per functional unit per control step (eq. 7)");
    ("dep_i", "data-dependency issue order (eq. 8)");
    ("o_ub_t", "task-uses-unit indicator upper bound (eq. 27)");
    ("u_ub_p", "partition-uses-unit indicator upper bound (eq. 23)");
    ("cap_p", "FPGA resource capacity of a partition (eq. 11)");
    ("c_def_i", "task-active-at-step indicator definition");
    ("excl_j", "control-step ownership exclusion (eq. 13, compact form)");
    ("cut28_p", "Section 6 tightening cut (eq. 28)");
    ("cut29_p", "Section 6 tightening cut (eq. 29)");
    ("cut_cp_t", "step-ownership cut: intra-task critical path");
    ("cut_opcount_p", "step-ownership cut: executable operation count");
    ("cut_", "step-ownership cut: per-kind operation count");
  ]

let describe_row name =
  let matches p =
    String.length name >= String.length p
    && String.sub name 0 (String.length p) = p
  in
  match List.find_opt (fun (p, _) -> matches p) row_descriptions with
  | Some (_, d) -> Printf.sprintf "%s: %s" name d
  | None -> Printf.sprintf "%s: linearization/coupling row" name

let kind_to_string = function
  | Lp.Binary -> "binary"
  | Lp.Integer -> "integer"
  | Lp.Continuous -> "continuous"

let audit ~options spec lp =
  let e = expectation ~options spec in
  let cens = census ~options spec in
  let findings = ref [] in
  let emit severity code fmt =
    Format.kasprintf
      (fun message -> findings := { severity; code; message } :: !findings)
      fmt
  in
  (* ---- variables -------------------------------------------------- *)
  let actual_vars = Hashtbl.create 1024 in
  for j = 0 to Lp.num_vars lp - 1 do
    let v = Lp.var_of_int lp j in
    Hashtbl.replace actual_vars (Lp.var_name lp v) (Lp.var_kind lp v)
  done;
  let expected_var_names =
    Hashtbl.fold (fun n _ acc -> n :: acc) e.vars [] |> List.sort compare
  in
  List.iter
    (fun name ->
      let kind = Hashtbl.find e.vars name in
      match Hashtbl.find_opt actual_vars name with
      | None -> emit A.Error "missing-variable" "variable %s is missing" name
      | Some k when k <> kind ->
        if String.length name >= 2 && String.sub name 0 2 = "z_" then
          emit A.Error "variable-kind"
            "variable %s is %s but the %s linearization requires %s" name
            (kind_to_string k)
            (match options.Formulation.linearization with
             | Formulation.Fortet -> "Fortet"
             | Formulation.Glover -> "Glover")
            (kind_to_string kind)
        else
          emit A.Error "variable-kind" "variable %s is %s, expected %s" name
            (kind_to_string k) (kind_to_string kind)
      | Some _ -> ())
    expected_var_names;
  let actual_var_names =
    Hashtbl.fold (fun n _ acc -> n :: acc) actual_vars [] |> List.sort compare
  in
  List.iter
    (fun name ->
      if not (Hashtbl.mem e.vars name) then
        emit A.Error "unexpected-variable"
          "variable %s does not belong to the formulation" name)
    actual_var_names;
  if Lp.num_vars lp <> cens.total_vars then
    emit A.Error "var-census" "model has %d variables, census expects %d"
      (Lp.num_vars lp) cens.total_vars;
  (* ---- rows ------------------------------------------------------- *)
  let actual_rows = Hashtbl.create 1024 in
  let row_index = Hashtbl.create 1024 in
  Lp.iter_rows lp (fun i _ _ _ ->
      let n = Lp.row_name lp i in
      if not (Hashtbl.mem row_index n) then Hashtbl.replace row_index n i;
      Hashtbl.replace actual_rows n
        (1 + Option.value ~default:0 (Hashtbl.find_opt actual_rows n)));
  let expected_row_names =
    Hashtbl.fold (fun n c acc -> (n, c) :: acc) e.named [] |> List.sort compare
  in
  List.iter
    (fun (name, exp_n) ->
      match Option.value ~default:0 (Hashtbl.find_opt actual_rows name) with
      | 0 -> emit A.Error "missing-row" "row %s is missing" name
      | n when n < exp_n ->
        emit A.Error "missing-row" "row %s appears %d time(s), expected %d"
          name n exp_n
      | n when n > exp_n ->
        emit A.Error "duplicate-row" "row %s appears %d time(s), expected %d"
          name n exp_n
      | _ -> ())
    expected_row_names;
  let actual_row_names =
    Hashtbl.fold (fun n c acc -> (n, c) :: acc) actual_rows []
    |> List.sort compare
  in
  List.iter
    (fun (name, _) ->
      if has_owned_prefix name && not (Hashtbl.mem e.named name) then
        emit A.Error "unexpected-row"
          "row %s should not exist under the configured options" name)
    actual_row_names;
  if Lp.num_constrs lp <> cens.total_rows then
    emit A.Error "row-census" "model has %d rows, census expects %d"
      (Lp.num_constrs lp) cens.total_rows;
  (* ---- set-partitioning shape of the uniq/assign rows ------------- *)
  let check_partitioning name width =
    match Hashtbl.find_opt row_index name with
    | None -> ()  (* already reported missing *)
    | Some i ->
      let terms, sense, rhs = Lp.row lp i in
      if
        sense <> Lp.Eq || rhs <> 1.
        || List.length terms <> width
        || not (List.for_all (fun (c, _) -> c = 1.) terms)
      then
        emit A.Error "malformed-row"
          "row %s must be a width-%d set-partitioning row (unit \
           coefficients, = 1)"
          name width
  in
  let g = spec.Spec.graph in
  let sh = shape_of spec in
  for t = 0 to G.num_tasks g - 1 do
    check_partitioning (Printf.sprintf "uniq_t%d" t) spec.Spec.num_partitions
  done;
  for i = 0 to G.num_ops g - 1 do
    check_partitioning (Printf.sprintf "assign_i%d" i)
      (List.length sh.x_ent.(i))
  done;
  {
    findings = List.rev !findings;
    census = cens;
    actual_vars = Lp.num_vars lp;
    actual_rows = Lp.num_constrs lp;
  }

let audit_vars vars = audit ~options:vars.Vars.options vars.Vars.spec vars.Vars.lp

let errors r = List.filter (fun f -> f.severity = A.Error) r.findings

let is_clean r = errors r = []

let pp_report ppf r =
  Format.fprintf ppf "@[<v>audit: %d/%d vars, %d/%d rows (actual/census)@,"
    r.actual_vars r.census.total_vars r.actual_rows r.census.total_rows;
  Format.fprintf ppf "var census:";
  List.iter
    (fun (fam, n) -> Format.fprintf ppf " %s %d" fam n)
    r.census.var_families;
  Format.fprintf ppf "@,row census:";
  List.iter
    (fun (fam, n) -> Format.fprintf ppf " %s %d" fam n)
    r.census.row_families;
  Format.fprintf ppf "@,";
  (match r.findings with
   | [] -> Format.fprintf ppf "formulation invariants ok"
   | fs ->
     List.iter
       (fun f ->
         Format.fprintf ppf "%s[%s]: %s@,"
           (A.severity_to_string f.severity)
           f.code f.message)
       fs;
     Format.fprintf ppf "%d finding(s), %d error(s)" (List.length fs)
       (List.length (errors r)));
  Format.fprintf ppf "@]"

let to_json r =
  let open Ilp.Json in
  let int n = Num (Float.of_int n) in
  let counts actual expected =
    Obj [ ("actual", int actual); ("expected", int expected) ]
  in
  let families fams = Obj (List.map (fun (f, n) -> (f, int n)) fams) in
  let finding f =
    Obj
      [
        ("severity", Str (A.severity_to_string f.severity));
        ("code", Str f.code);
        ("message", Str f.message);
      ]
  in
  Obj
    [
      ("vars", counts r.actual_vars r.census.total_vars);
      ("rows", counts r.actual_rows r.census.total_rows);
      ("var_census", families r.census.var_families);
      ("row_census", families r.census.row_families);
      ("findings", Arr (List.map finding r.findings));
    ]
