(* Exact certification: hand-checked verdicts, corrupted-solution
   refutation, and randomized agreement between the cold dual start and
   a primal phase-I solve of the same model. The random generators
   mirror test_simplex's mixed-sense models. *)

module Lp = Ilp.Lp
module Sx = Ilp.Simplex
module C = Ilp.Certify
module R = Ilp.Rat

let solve_snap lp =
  let st = Sx.create lp in
  let r = Sx.primal st in
  (r, Sx.snapshot st)

(* max 3x + 2y st x + y <= 4; x + 3y <= 6 -> (4, 0), obj 12 *)
let basic_max () =
  let lp = Lp.create () in
  let x = Lp.add_var lp Lp.Continuous in
  let y = Lp.add_var lp Lp.Continuous in
  ignore (Lp.add_constr lp [ (1., x); (1., y) ] Lp.Le 4.);
  ignore (Lp.add_constr lp [ (1., x); (3., y) ] Lp.Le 6.);
  Lp.set_objective lp ~maximize:true [ (3., x); (2., y) ];
  (lp, x, y)

let test_certified_optimum () =
  let lp, _, _ = basic_max () in
  let r, snap = solve_snap lp in
  let c = C.check snap r in
  Alcotest.(check bool) "certified" true (c.C.verdict = C.Certified);
  (match c.C.detail with
  | C.Exact_optimum { obj } ->
      (* internal minimization objective of a maximization model *)
      Alcotest.(check string) "exact obj" "-12" (R.to_string obj)
  | _ -> Alcotest.fail "expected Exact_optimum");
  Alcotest.(check int) "exit code" 0 (C.exit_code c.C.verdict)

let test_certified_infeasible () =
  let lp = Lp.create () in
  let x = Lp.add_var lp Lp.Continuous in
  ignore (Lp.add_constr lp [ (1., x) ] Lp.Le 1.);
  ignore (Lp.add_constr lp [ (1., x) ] Lp.Ge 2.);
  let r, snap = solve_snap lp in
  Alcotest.(check bool) "infeasible" true (r.Sx.status = Sx.Infeasible);
  Alcotest.(check bool) "has float ray" true (r.Sx.farkas <> None);
  let c = C.check snap r in
  match c.C.detail with
  | C.Farkas_proof { gap; support; _ } ->
      Alcotest.(check bool) "certified" true (c.C.verdict = C.Certified);
      Alcotest.(check bool) "positive exact gap" true (R.sign gap > 0);
      Alcotest.(check bool) "nonempty support" true (support <> [])
  | _ -> Alcotest.fail ("expected Farkas_proof, got " ^ C.describe c)

let test_refuted_objective () =
  let lp, _, _ = basic_max () in
  let r, snap = solve_snap lp in
  let lie = { r with Sx.obj = r.Sx.obj +. 1. } in
  let c = C.check snap lie in
  Alcotest.(check bool) "refuted" true (c.C.verdict = C.Refuted);
  (match c.C.detail with
  | C.Objective_mismatch { exact; reported } ->
      Alcotest.(check string) "exact side" "-12" (R.to_string exact);
      Alcotest.(check (float 1e-9)) "reported side" (-11.) reported
  | _ -> Alcotest.fail "expected Objective_mismatch");
  Alcotest.(check int) "exit code" 1 (C.exit_code c.C.verdict)

let test_refuted_bound_violation () =
  let lp, x, _ = basic_max () in
  let r, snap = solve_snap lp in
  (* At the optimum x = 4 is basic (its own bound is infinite, so it
     cannot sit nonbasic at a bound). Shrinking the snapshot's copy of
     its upper bound makes the exact basic solution provably out of
     bounds: a corrupted model/solution pair. *)
  snap.Sx.s_ub.((x :> int)) <- 3.;
  let c = C.check snap r in
  Alcotest.(check bool) "refuted" true (c.C.verdict = C.Refuted);
  match c.C.detail with
  | C.Bound_violation { column; violation } ->
      Alcotest.(check int) "column" (x :> int) column;
      Alcotest.(check (float 1e-9)) "violation" 1. violation
  | _ -> Alcotest.fail "expected Bound_violation"

let test_uncertifiable_iter_limit () =
  let lp, _, _ = basic_max () in
  let st = Sx.create lp in
  let r = Sx.primal ~max_iters:0 st in
  if r.Sx.status = Sx.Iter_limit then begin
    let c = C.check (Sx.snapshot st) r in
    Alcotest.(check bool) "uncertifiable" true
      (c.C.verdict = C.Uncertifiable);
    Alcotest.(check int) "exit code" 2 (C.exit_code c.C.verdict)
  end

(* The slack (column nstruct + i) and the artificial (nstruct + m + i)
   of one row are the same unit vector: a basis holding both is
   singular, however the rest of it looks. *)
let test_double_cover_singular () =
  let lp, _, _ = basic_max () in
  let r, snap = solve_snap lp in
  let n = snap.Sx.s_nstruct and m = snap.Sx.s_m in
  let snap = { snap with Sx.s_basis = [| n; n + m |] } in
  let c = C.check snap r in
  Alcotest.(check bool) "uncertifiable" true (c.C.verdict = C.Uncertifiable);
  Alcotest.(check bool) "singular basis" true
    (c.C.detail = C.Singular_basis);
  Alcotest.(check bool) "no solve" true
    (C.basis_solve snap ~rhs:(Array.make m R.one) ~cost:(Array.make m R.one)
     = None)

let contains ~affix s =
  let n = String.length affix and ls = String.length s in
  let rec go i = i + n <= ls && (String.sub s i n = affix || go (i + 1)) in
  go 0

let test_map_rows_and_json () =
  let lp = Lp.create () in
  let x = Lp.add_var lp Lp.Continuous in
  ignore (Lp.add_constr lp [ (1., x) ] Lp.Le 1.);
  ignore (Lp.add_constr lp [ (1., x) ] Lp.Ge 2.);
  let r, c = C.check_lp lp in
  Alcotest.(check bool) "infeasible" true (r.Sx.status = Sx.Infeasible);
  let mapped = C.map_rows (fun i -> i + 10) c in
  (match mapped.C.detail with
  | C.Farkas_proof { support; witness_row; _ } ->
      Alcotest.(check bool) "rows shifted" true
        (List.for_all (fun i -> i >= 10) support && witness_row >= 10)
  | _ -> Alcotest.fail "expected Farkas_proof");
  let js = Ilp.Json.to_string (C.to_json ~row_name:(Printf.sprintf "r%d") c) in
  Alcotest.(check bool) "json has verdict" true
    (contains ~affix:"certified" js);
  Alcotest.(check bool) "json has kind" true
    (contains ~affix:"farkas_proof" js);
  Alcotest.(check bool) "json names rows" true (contains ~affix:"r0" js)

let test_iis_extraction () =
  (* a + b <= 5 conflicts with a >= 4, b >= 4; the slack row is noise *)
  let lp = Lp.create () in
  let a = Lp.add_var lp ~ub:10. Lp.Continuous in
  let b = Lp.add_var lp ~ub:10. Lp.Continuous in
  ignore (Lp.add_constr lp ~name:"sum_le" [ (1., a); (1., b) ] Lp.Le 5.);
  ignore (Lp.add_constr lp ~name:"a_ge" [ (1., a) ] Lp.Ge 4.);
  ignore (Lp.add_constr lp ~name:"b_ge" [ (1., b) ] Lp.Ge 4.);
  ignore (Lp.add_constr lp ~name:"junk" [ (1., a); (-1., b) ] Lp.Le 100.);
  match Ilp.Iis.extract lp with
  | Ilp.Iis.Iis { rows; names; certificate; solves } ->
      Alcotest.(check (list int)) "conflicting rows" [ 0; 1; 2 ] rows;
      Alcotest.(check (list string))
        "row names" [ "sum_le"; "a_ge"; "b_ge" ] names;
      Alcotest.(check bool) "certified" true
        (certificate.C.verdict = C.Certified);
      (match certificate.C.detail with
      | C.Farkas_proof { support; _ } ->
          Alcotest.(check bool) "support within IIS in original coords" true
            (List.for_all (fun i -> List.mem i rows) support)
      | _ -> Alcotest.fail "expected Farkas_proof");
      Alcotest.(check bool) "spent solves" true (solves >= 2)
  | Ilp.Iis.Feasible -> Alcotest.fail "model is infeasible"
  | Ilp.Iis.Inconclusive why -> Alcotest.fail ("inconclusive: " ^ why)

let test_iis_feasible_model () =
  let lp, _, _ = basic_max () in
  Alcotest.(check bool) "feasible outcome" true
    (Ilp.Iis.extract lp = Ilp.Iis.Feasible)

(* -------- integration: search-level certification and diagnostics -- *)

module Bb = Ilp.Branch_bound

(* small MILP with a real tree: maximize x + y + z, binaries, one
   knapsack that forces a fractional root *)
let small_milp () =
  let lp = Lp.create () in
  let x = Lp.add_var lp Lp.Binary in
  let y = Lp.add_var lp Lp.Binary in
  let z = Lp.add_var lp Lp.Binary in
  ignore (Lp.add_constr lp [ (3., x); (5., y); (7., z) ] Lp.Le 9.);
  Lp.set_objective lp ~maximize:true [ (4., x); (5., y); (6., z) ];
  lp

let test_bb_certify_levels () =
  let lp = small_milp () in
  let run level =
    let options = { Bb.default_options with Bb.certify_level = level } in
    snd (Bb.solve ~options lp)
  in
  let off = run Bb.Cert_off in
  Alcotest.(check int) "off checks nothing" 0
    off.Bb.certification.Bb.cert_checked;
  let root = run Bb.Cert_root in
  Alcotest.(check int) "root checks once" 1
    root.Bb.certification.Bb.cert_checked;
  Alcotest.(check int) "root certifies" 1
    root.Bb.certification.Bb.cert_certified;
  Alcotest.(check bool) "root certificate kept" true
    (root.Bb.certification.Bb.root_certificate <> None);
  let all = run Bb.Cert_all in
  let c = all.Bb.certification in
  Alcotest.(check int) "all checks every node" all.Bb.nodes
    c.Bb.cert_checked;
  Alcotest.(check int) "nothing refuted" 0 c.Bb.cert_refuted;
  Alcotest.(check int) "everything certified" c.Bb.cert_checked
    c.Bb.cert_certified;
  (* identical search under observation: node counts must not move *)
  Alcotest.(check int) "certification does not steer" off.Bb.nodes
    all.Bb.nodes

(* Certification only reads the engine: graph 1 at (N=2, L=3) takes
   the same nodes to the same optimum at every level, and every node it
   checks certifies. A checked node solves its LP before the completion
   hook may settle it on its bounds. Under [Cert_root] only the root is
   checked, and it branches at every level, so the search is identical
   to the unchecked one: the same pivots and the same node-LP table,
   row by row. Under [Cert_all] the nodes the unchecked search settles
   with no LP pay their LP, and close as infeasible when it is. There
   the nodes that branch or close by bound keep their counts and
   pivots, and the nodes that close as infeasible or by the hook keep
   their number, so the extra LPs are the whole pivot difference. *)
let test_certify_does_not_steer () =
  let spec =
    Temporal.Spec.make ~graph:(Taskgraph.Examples.paper_graph 1)
      ~allocation:(Hls.Component.ams (2, 2, 1))
      ~capacity:70 ~scratch:30 ~latency_relax:3 ~num_partitions:2 ()
  in
  let row (r : Ilp.Metrics.node_lp_row) =
    (r.Ilp.Metrics.nl_reason, r.Ilp.Metrics.nl_nodes, r.Ilp.Metrics.nl_pivots)
  in
  let run certify =
    let report =
      Temporal.Solver.solve ~certify (Temporal.Formulation.build spec)
    in
    (report.Temporal.Solver.objective, report.Temporal.Solver.stats)
  in
  let settles (r : Ilp.Metrics.node_lp_row) =
    r.nl_reason = "hook" || r.nl_reason = "infeasible"
  in
  let rows st = List.tl (Array.to_list st.Bb.node_lps) in
  let sum f rs = List.fold_left (fun acc r -> acc + f r) 0 rs in
  let obj, off = run Bb.Cert_off in
  Alcotest.(check bool)
    "the hook settles nodes before their LP" true
    (off.Bb.deductions.Bb.hook_pre_lp > 0);
  let common name (obj', st) =
    let c = st.Bb.certification in
    Alcotest.(check (option (float 0.))) (name ^ " objective") obj obj';
    Alcotest.(check int) (name ^ " nodes") off.Bb.nodes st.Bb.nodes;
    Alcotest.(check int) (name ^ " all certified") c.Bb.cert_checked
      c.Bb.cert_certified
  in
  let root = run Bb.Cert_root in
  common "root" root;
  let st = snd root in
  Alcotest.(check int) "root pivots" off.Bb.pivots st.Bb.pivots;
  Alcotest.(check (list (triple string int int)))
    "root node-LP rows"
    (List.map row (Array.to_list off.Bb.node_lps))
    (List.map row (Array.to_list st.Bb.node_lps));
  let all = run Bb.Cert_all in
  common "all" all;
  let st = snd all in
  let split st = List.partition settles (rows st) in
  let settled, others = split off and settled', others' = split st in
  Alcotest.(check (list (triple string int int)))
    "all branched and bound nodes" (List.map row others)
    (List.map row others');
  Alcotest.(check int) "all infeasible or hook-closed nodes"
    (sum (fun r -> r.Ilp.Metrics.nl_nodes) settled)
    (sum (fun r -> r.Ilp.Metrics.nl_nodes) settled');
  Alcotest.(check int) "all pivots outside infeasible and hook-closed nodes"
    (off.Bb.pivots - sum (fun r -> r.Ilp.Metrics.nl_pivots) settled)
    (st.Bb.pivots - sum (fun r -> r.Ilp.Metrics.nl_pivots) settled')

let test_certificate_diagnostics () =
  let module A = Ilp.Analyze in
  let lp, _, _ = basic_max () in
  (match A.certificate_diagnostics lp with
  | [ d ] ->
      Alcotest.(check string) "optimal code" "certificate-optimal" d.A.code;
      Alcotest.(check bool) "info severity" true (d.A.severity = A.Info)
  | ds -> Alcotest.fail (Printf.sprintf "expected 1 diagnostic, got %d"
                           (List.length ds)));
  let bad = Lp.create () in
  let x = Lp.add_var bad ~ub:10. Lp.Continuous in
  ignore (Lp.add_constr bad ~name:"lo" [ (1., x) ] Lp.Le 1.);
  ignore (Lp.add_constr bad ~name:"hi" [ (1., x) ] Lp.Ge 2.);
  let ds = A.certificate_diagnostics ~iis:true bad in
  let infeas =
    List.filter (fun (d : A.diagnostic) -> d.A.code = "certificate-infeasible")
      ds
  in
  let iis_rows =
    List.filter (fun (d : A.diagnostic) -> d.A.code = "iis-row") ds
  in
  Alcotest.(check int) "one infeasibility finding" 1 (List.length infeas);
  Alcotest.(check bool) "all error severity" true
    (List.for_all (fun (d : A.diagnostic) -> d.A.severity = A.Error) infeas);
  Alcotest.(check int) "both conflict rows named" 2 (List.length iis_rows);
  Alcotest.(check bool) "iis rows are row-scoped" true
    (List.for_all (fun (d : A.diagnostic) -> d.A.row <> None) iis_rows)

(* -------- randomized properties -------- *)

let make_rand_mixed seed ~n ~m =
  let rng = Taskgraph.Prng.create seed in
  let lp = Lp.create () in
  let vars =
    Array.init n (fun _ ->
        if Taskgraph.Prng.bool rng 0.2 then
          Lp.add_var lp ~lb:(-3.) ~ub:4. Lp.Continuous
        else Lp.add_var lp ~ub:5. Lp.Continuous)
  in
  let x0 =
    Array.init n (fun j ->
        let v = Lp.var_of_int lp j in
        let lo = Lp.var_lb lp v and hi = Lp.var_ub lp v in
        lo +. (Taskgraph.Prng.float rng *. (hi -. lo)))
  in
  for _ = 1 to m do
    let terms =
      Array.to_list vars
      |> List.filter_map (fun v ->
             if Taskgraph.Prng.bool rng 0.5 then
               Some (Float.of_int (Taskgraph.Prng.int_in rng (-3) 4), v)
             else None)
    in
    if terms <> [] then begin
      let act =
        List.fold_left
          (fun acc ((c : float), (v : Lp.var)) -> acc +. (c *. x0.((v :> int))))
          0. terms
      in
      match Taskgraph.Prng.int rng 3 with
      | 0 ->
          ignore
            (Lp.add_constr lp terms Lp.Le
               (act +. (Taskgraph.Prng.float rng *. 3.)))
      | 1 ->
          ignore
            (Lp.add_constr lp terms Lp.Ge
               (act -. (Taskgraph.Prng.float rng *. 3.)))
      | _ -> ignore (Lp.add_constr lp terms Lp.Eq act)
    end
  done;
  let obj =
    Array.to_list vars
    |> List.map (fun v -> (Float.of_int (Taskgraph.Prng.int_in rng (-3) 3), v))
  in
  Lp.set_objective lp ~maximize:true obj;
  (lp, vars)

let certified_obj c =
  match c.C.detail with
  | C.Exact_optimum { obj } | C.Optimal_within { obj; _ } -> Some obj
  | _ -> None

(* A free zero-cost column in no row changes neither the optimum nor
   feasibility, but it has no finite bound to start at, so a cold solve
   of this twin runs primal phase I/II: an oracle independent of the
   dual start that solves every boxed model. *)
let phase1_twin lp =
  let twin = Lp.copy lp in
  ignore
    (Lp.add_var twin ~lb:Float.neg_infinity ~ub:Float.infinity Lp.Continuous);
  twin

let prop_random_optima_certified =
  QCheck.Test.make
    ~name:"random LP optima certify and agree with the phase-I twin"
    ~count:120
    QCheck.(int_bound 100_000)
    (fun seed ->
      let lp, _ = make_rand_mixed seed ~n:7 ~m:7 in
      let r, snap = solve_snap lp in
      if r.Sx.status <> Sx.Optimal then false
      else
        let c = C.check snap r in
        match (c.C.verdict, certified_obj c) with
        | C.Certified, Some obj ->
            let st1 = Sx.create (phase1_twin lp) in
            let oracle = Sx.primal st1 in
            (Sx.stats st1).Sx.cold_primal = 1
            && oracle.Sx.status = Sx.Optimal
            && Float.abs (R.to_float obj -. oracle.Sx.obj)
               <= 1e-6 *. (1. +. Float.abs oracle.Sx.obj)
        | _ -> false)

let prop_corrupted_refuted =
  QCheck.Test.make ~name:"corrupted objectives are refuted" ~count:120
    QCheck.(int_bound 100_000)
    (fun seed ->
      let lp, _ = make_rand_mixed seed ~n:7 ~m:7 in
      let r, snap = solve_snap lp in
      if r.Sx.status <> Sx.Optimal then false
      else
        let lie = { r with Sx.obj = r.Sx.obj +. 0.5 } in
        let c = C.check snap lie in
        c.C.verdict = C.Refuted)

let prop_infeasible_farkas_certified =
  QCheck.Test.make
    ~name:"contradictory random systems yield exact Farkas certificates"
    ~count:120
    QCheck.(int_bound 100_000)
    (fun seed ->
      let lp, vars = make_rand_mixed seed ~n:6 ~m:5 in
      (* wedge a contradiction across all variables *)
      let terms = Array.to_list vars |> List.map (fun v -> (1., v)) in
      let mid = 1. +. Float.of_int (seed mod 5) in
      ignore (Lp.add_constr lp terms Lp.Le mid);
      ignore (Lp.add_constr lp terms Lp.Ge (mid +. 1.5));
      let r, snap = solve_snap lp in
      r.Sx.status = Sx.Infeasible
      &&
      let c = C.check snap r in
      match c.C.detail with
      | C.Farkas_proof { gap; support; _ } ->
          c.C.verdict = C.Certified && R.sign gap > 0 && support <> []
      | _ -> false)

(* Random LPs with mixed rows whose columns all have a finite bound on
   the side their cost asks for, so the cold solve starts from the dual
   feasible slack basis. Most columns are boxed; about one in four has
   that one bound only (e.g. [x <= u] for a column the maximization
   rewards), which a start at the wrong bound could not take. Rows are
   anchored at a point of the domain, except that about one in four has
   its right-hand side pushed away from it, which makes a share of the
   models infeasible. *)
let make_cost_side_lp seed ~n ~m =
  let rng = Taskgraph.Prng.create seed in
  let lp = Lp.create () in
  let obj = Array.init n (fun _ -> Float.of_int (Taskgraph.Prng.int_in rng (-3) 3)) in
  let x0 = Array.make n 0. in
  let vars =
    Array.init n (fun j ->
        let lb, ub =
          if Taskgraph.Prng.bool rng 0.25 then begin
            let b = Float.of_int (Taskgraph.Prng.int_in rng (-2) 3) in
            (* maximizing: a positive coefficient wants x large *)
            if obj.(j) > 0. then (Float.neg_infinity, b) else (b, Float.infinity)
          end
          else if Taskgraph.Prng.bool rng 0.2 then (-3., 4.)
          else (0., 5.)
        in
        let lo = if Float.is_finite lb then lb else ub -. 5. in
        let hi = if Float.is_finite ub then ub else lb +. 5. in
        x0.(j) <- lo +. (Taskgraph.Prng.float rng *. (hi -. lo));
        Lp.add_var lp ~lb ~ub Lp.Continuous)
  in
  for _ = 1 to m do
    let terms =
      Array.to_list vars
      |> List.filter_map (fun v ->
             if Taskgraph.Prng.bool rng 0.5 then
               Some (Float.of_int (Taskgraph.Prng.int_in rng (-3) 4), v)
             else None)
      |> List.filter (fun (c, _) -> c <> 0.)
    in
    if terms <> [] then begin
      let act = Lp.eval_linear terms x0 in
      let push =
        if Taskgraph.Prng.bool rng 0.25 then
          Float.of_int (Taskgraph.Prng.int_in rng (-12) 12)
        else 0.
      in
      match Taskgraph.Prng.int rng 3 with
      | 0 -> ignore (Lp.add_constr lp terms Lp.Le (act +. push +. 0.5))
      | 1 -> ignore (Lp.add_constr lp terms Lp.Ge (act +. push -. 0.5))
      | _ -> ignore (Lp.add_constr lp terms Lp.Eq (act +. push))
    end
  done;
  Lp.set_objective lp ~maximize:true
    (Array.to_list (Array.mapi (fun j v -> (obj.(j), v)) vars));
  lp

(* Every cold verdict on such a model comes from the dual start: an
   optimum certifies exactly and an infeasible verdict certifies
   through its [Inf_dual_row] ray. Both match the phase-I twin. *)
let prop_cold_verdicts_certified =
  QCheck.Test.make
    ~name:"cold dual-start verdicts certify and match phase I" ~count:150
    QCheck.(int_bound 100_000)
    (fun seed ->
      let lp = make_cost_side_lp seed ~n:7 ~m:7 in
      let st = Sx.create lp in
      let r = Sx.primal st in
      let snap = Sx.snapshot st in
      let c = C.check snap r in
      let st1 = Sx.create (phase1_twin lp) in
      let r1 = Sx.primal st1 in
      (Sx.stats st).Sx.cold_primal = 0
      && (Sx.stats st1).Sx.cold_primal = 1
      && r.Sx.status = r1.Sx.status
      && c.C.verdict = C.Certified
      &&
      match r.Sx.status with
      | Sx.Optimal ->
        Float.abs (r.Sx.obj -. r1.Sx.obj)
        <= 1e-6 *. (1. +. Float.abs r1.Sx.obj)
      | Sx.Infeasible -> (
        match snap.Sx.s_infeasibility with
        | Some (Sx.Inf_dual_row _) -> true
        | Some (Sx.Inf_phase1 _) | None -> false)
      | Sx.Unbounded | Sx.Iter_limit -> false)

(* Random bases over a random integer matrix: k structural slots, the
   other m - k slots slacks or artificials of distinct rows (in one
   case in ten two of them cover the same row), in shuffled slot
   order. [basis_solve] must answer exactly when B is nonsingular —
   decided here by dense rational elimination — and its x and y must
   satisfy B x = b and B^T y = c when multiplied back exactly. *)
let dense_singular b =
  let m = Array.length b in
  let a = Array.map Array.copy b in
  let singular = ref false in
  for k = 0 to m - 1 do
    if not !singular then
      let rows = List.init (m - k) (fun i -> k + i) in
      match List.find_opt (fun i -> not (R.is_zero a.(i).(k))) rows with
      | None -> singular := true
      | Some p ->
        let t = a.(k) in
        a.(k) <- a.(p);
        a.(p) <- t;
        for i = k + 1 to m - 1 do
          let f = R.div a.(i).(k) a.(k).(k) in
          if not (R.is_zero f) then
            for j = k to m - 1 do
              a.(i).(j) <- R.sub a.(i).(j) (R.mul f a.(k).(j))
            done
        done
  done;
  !singular

let prop_basis_solve_exact =
  QCheck.Test.make ~name:"nucleus basis solve is exact on mixed random bases"
    ~count:300
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Taskgraph.Prng.create seed in
      let n = 2 + Taskgraph.Prng.int rng 5 in
      let m = 2 + Taskgraph.Prng.int rng 5 in
      let lp = Lp.create () in
      let vars = Array.init n (fun _ -> Lp.add_var lp ~ub:5. Lp.Continuous) in
      for i = 0 to m - 1 do
        let terms =
          Array.to_list vars
          |> List.filter_map (fun v ->
                 let c = Taskgraph.Prng.int_in rng (-3) 3 in
                 if c <> 0 && Taskgraph.Prng.bool rng 0.6 then
                   Some (Float.of_int c, v)
                 else None)
        in
        let terms = if terms = [] then [ (1., vars.(i mod n)) ] else terms in
        ignore (Lp.add_constr lp terms Lp.Le 1.)
      done;
      let snap = Sx.snapshot (Sx.create lp) in
      let shuffle a =
        for i = Array.length a - 1 downto 1 do
          let j = Taskgraph.Prng.int rng (i + 1) in
          let t = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- t
        done;
        a
      in
      let k = Taskgraph.Prng.int rng (1 + Int.min n m) in
      let structural = Array.sub (shuffle (Array.init n Fun.id)) 0 k in
      let rows = Array.sub (shuffle (Array.init m Fun.id)) 0 (m - k) in
      if m - k >= 2 && Taskgraph.Prng.bool rng 0.1 then rows.(0) <- rows.(1);
      let units =
        Array.map
          (fun r -> if Taskgraph.Prng.bool rng 0.5 then n + r else n + m + r)
          rows
      in
      let basis = shuffle (Array.append structural units) in
      let snap = { snap with Sx.s_basis = basis } in
      let bmat = Array.make_matrix m m R.zero in
      Array.iteri
        (fun q j ->
          Ilp.Sparse.Csc.iter_col snap.Sx.s_mat j (fun i v ->
              bmat.(i).(q) <- R.of_float v))
        basis;
      let small () =
        R.of_ints
          (Taskgraph.Prng.int_in rng (-9) 9)
          (1 + Taskgraph.Prng.int rng 4)
      in
      let rhs = Array.init m (fun _ -> small ()) in
      let cost = Array.init m (fun _ -> small ()) in
      let dot f = Array.fold_left R.add R.zero (Array.init m f) in
      match C.basis_solve snap ~rhs ~cost with
      | None -> dense_singular bmat
      | Some (x, y) ->
        (not (dense_singular bmat))
        && List.for_all
             (fun i ->
               R.equal (dot (fun q -> R.mul bmat.(i).(q) x.(q))) rhs.(i))
             (List.init m Fun.id)
        && List.for_all
             (fun q ->
               R.equal (dot (fun i -> R.mul bmat.(i).(q) y.(i))) cost.(q))
             (List.init m Fun.id))

(* Regression: the root relaxation of all six paper evaluation graphs
   must certify exactly — every basis the engine reports has to survive
   rational re-derivation. Table 4 design points, C = 70, Ms = 30. *)
let test_paper_graphs_root_certify () =
  List.iter
    (fun (gno, n, l) ->
      let g = Taskgraph.Examples.paper_graph gno in
      let spec =
        Temporal.Spec.make ~graph:g
          ~allocation:(Hls.Component.ams (2, 2, 1))
          ~capacity:70 ~scratch:30 ~latency_relax:l ~num_partitions:n ()
      in
      let vars = Temporal.Formulation.build spec in
      let r, cert = C.check_lp vars.Temporal.Vars.lp in
      Alcotest.(check bool)
        (Printf.sprintf "graph %d root solved" gno)
        true
        (r.Sx.status = Sx.Optimal || r.Sx.status = Sx.Infeasible);
      Alcotest.(check bool)
        (Printf.sprintf "graph %d root certified" gno)
        true
        (cert.C.verdict = C.Certified))
    [ (1, 3, 1); (2, 4, 1); (3, 3, 1); (4, 2, 1); (5, 2, 1); (6, 2, 1) ]

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "certify"
    [
      ( "hand-checked",
        [
          Alcotest.test_case "certified optimum" `Quick test_certified_optimum;
          Alcotest.test_case "certified infeasible" `Quick
            test_certified_infeasible;
          Alcotest.test_case "refuted objective" `Quick test_refuted_objective;
          Alcotest.test_case "refuted bound violation" `Quick
            test_refuted_bound_violation;
          Alcotest.test_case "iter-limit uncertifiable" `Quick
            test_uncertifiable_iter_limit;
          Alcotest.test_case "row covered twice is singular" `Quick
            test_double_cover_singular;
          Alcotest.test_case "map_rows and json" `Quick test_map_rows_and_json;
          Alcotest.test_case "iis extraction" `Quick test_iis_extraction;
          Alcotest.test_case "iis on feasible model" `Quick
            test_iis_feasible_model;
        ] );
      ( "integration",
        [
          Alcotest.test_case "branch-and-bound certify levels" `Quick
            test_bb_certify_levels;
          Alcotest.test_case "certification does not steer the search"
            `Quick test_certify_does_not_steer;
          Alcotest.test_case "certificate diagnostics" `Quick
            test_certificate_diagnostics;
          Alcotest.test_case "paper graphs root-certify under devex" `Slow
            test_paper_graphs_root_certify;
        ] );
      ( "properties",
        [
          qt prop_random_optima_certified;
          qt prop_corrupted_refuted;
          qt prop_infeasible_farkas_certified;
          qt prop_cold_verdicts_certified;
          qt prop_basis_solve_exact;
        ] );
    ]
