(* Unit and property tests for the basic ilp data structures:
   Sparse, Lp, Lp_format, Feas_check. *)

let check_float = Alcotest.(check (float 1e-9))

(* ---------------- Sparse ---------------- *)

let test_sparse_of_assoc () =
  let v = Ilp.Sparse.of_assoc [ (3, 1.); (1, 2.); (3, 2.) ] in
  Alcotest.(check int) "nnz" 2 (Ilp.Sparse.nnz v);
  check_float "get 1" 2. (Ilp.Sparse.get v 1);
  check_float "get 3" 3. (Ilp.Sparse.get v 3);
  check_float "get absent" 0. (Ilp.Sparse.get v 0);
  (* cancellation drops the entry *)
  let v2 = Ilp.Sparse.of_assoc [ (0, 1.); (0, -1.) ] in
  Alcotest.(check int) "cancelled" 0 (Ilp.Sparse.nnz v2)

let test_sparse_negative_index () =
  Alcotest.check_raises "negative"
    (Invalid_argument "Sparse.of_assoc: negative index") (fun () ->
      ignore (Ilp.Sparse.of_assoc [ (-1, 1.) ]))

let test_sparse_dot_dense () =
  let v = Ilp.Sparse.of_assoc [ (0, 2.); (2, 3.) ] in
  check_float "dot" (2. +. 9.) (Ilp.Sparse.dot_dense v [| 1.; 100.; 3. |])

let test_sparse_add_to_dense () =
  let v = Ilp.Sparse.of_assoc [ (1, 2.) ] in
  let d = [| 0.; 1.; 0. |] in
  Ilp.Sparse.add_to_dense ~scale:3. v d;
  Alcotest.(check (array (float 1e-9))) "add" [| 0.; 7.; 0. |] d

let test_sparse_iter_fold () =
  let v = Ilp.Sparse.of_assoc [ (2, 5.); (0, 1.) ] in
  Alcotest.(check (list (pair int (float 1e-9))))
    "to_list sorted"
    [ (0, 1.); (2, 5.) ]
    (Ilp.Sparse.to_list v);
  check_float "fold sum" 6. (Ilp.Sparse.fold (fun _ x acc -> acc +. x) v 0.)

let sparse_roundtrip =
  QCheck.Test.make ~name:"sparse of_assoc/get roundtrip" ~count:200
    QCheck.(small_list (pair (int_bound 30) (float_bound_inclusive 10.)))
    (fun assoc ->
      let v = Ilp.Sparse.of_assoc assoc in
      (* every index's summed coefficient matches get *)
      List.for_all
        (fun idx ->
          let expect =
            List.fold_left
              (fun acc (i, x) -> if i = idx then acc +. x else acc)
              0. assoc
          in
          let got = Ilp.Sparse.get v idx in
          Float.abs (got -. expect) <= 1e-9
          || (Float.abs expect <= 1e-13 && got = 0.))
        (List.map fst assoc))

(* ---------------- Lp builder ---------------- *)

let test_lp_vars () =
  let lp = Ilp.Lp.create ~name:"m" () in
  let a = Ilp.Lp.add_var lp ~name:"a" ~lb:(-1.) ~ub:2. Ilp.Lp.Continuous in
  let b = Ilp.Lp.add_var lp Ilp.Lp.Binary in
  let c = Ilp.Lp.add_var lp ~ub:5. Ilp.Lp.Integer in
  Alcotest.(check int) "num_vars" 3 (Ilp.Lp.num_vars lp);
  check_float "lb a" (-1.) (Ilp.Lp.var_lb lp a);
  check_float "ub a" 2. (Ilp.Lp.var_ub lp a);
  check_float "binary ub" 1. (Ilp.Lp.var_ub lp b);
  Alcotest.(check bool) "int b" true (Ilp.Lp.is_integer_var lp b);
  Alcotest.(check bool) "int c" true (Ilp.Lp.is_integer_var lp c);
  Alcotest.(check bool) "cont a" false (Ilp.Lp.is_integer_var lp a);
  Alcotest.(check int) "integer count" 2 (List.length (Ilp.Lp.integer_vars lp));
  Alcotest.(check string) "name" "a" (Ilp.Lp.var_name lp a)

let test_lp_bad_bounds () =
  let lp = Ilp.Lp.create () in
  Alcotest.check_raises "lb>ub" (Invalid_argument "Lp.add_var: lb > ub")
    (fun () -> ignore (Ilp.Lp.add_var lp ~lb:2. ~ub:1. Ilp.Lp.Continuous))

let test_lp_objective_sign () =
  let lp = Ilp.Lp.create () in
  let x = Ilp.Lp.add_var lp Ilp.Lp.Continuous in
  Ilp.Lp.set_objective lp ~maximize:true [ (3., x) ];
  check_float "sign" (-1.) (Ilp.Lp.obj_sign lp);
  (* stored minimization-oriented *)
  check_float "coeff" (-3.) (Ilp.Lp.objective lp).((x :> int));
  Ilp.Lp.set_objective lp [ (3., x) ];
  check_float "coeff min" 3. (Ilp.Lp.objective lp).((x :> int))

let test_lp_rows () =
  let lp = Ilp.Lp.create () in
  let x = Ilp.Lp.add_var lp Ilp.Lp.Continuous in
  let y = Ilp.Lp.add_var lp Ilp.Lp.Continuous in
  let r = Ilp.Lp.add_constr lp ~name:"r0" [ (1., x); (2., y) ] Ilp.Lp.Le 5. in
  Alcotest.(check int) "row idx" 0 r;
  Alcotest.(check int) "num" 1 (Ilp.Lp.num_constrs lp);
  let terms, sense, rhs = Ilp.Lp.row lp 0 in
  Alcotest.(check int) "terms" 2 (List.length terms);
  Alcotest.(check bool) "sense" true (sense = Ilp.Lp.Le);
  check_float "rhs" 5. rhs;
  Alcotest.(check string) "row name" "r0" (Ilp.Lp.row_name lp 0)

let test_lp_copy_isolated () =
  let lp = Ilp.Lp.create () in
  let x = Ilp.Lp.add_var lp Ilp.Lp.Binary in
  let lp2 = Ilp.Lp.copy lp in
  Ilp.Lp.set_bounds lp2 x ~lb:1. ~ub:1.;
  check_float "orig lb" 0. (Ilp.Lp.var_lb lp x);
  check_float "copy lb" 1. (Ilp.Lp.var_lb lp2 x)

let test_eval_linear () =
  let lp = Ilp.Lp.create () in
  let x = Ilp.Lp.add_var lp Ilp.Lp.Continuous in
  let y = Ilp.Lp.add_var lp Ilp.Lp.Continuous in
  check_float "eval" 8. (Ilp.Lp.eval_linear [ (2., x); (3., y) ] [| 1.; 2. |])

(* ---------------- Feas_check ---------------- *)

let small_model () =
  let lp = Ilp.Lp.create () in
  let x = Ilp.Lp.add_var lp Ilp.Lp.Binary in
  let y = Ilp.Lp.add_var lp ~ub:2. Ilp.Lp.Continuous in
  ignore (Ilp.Lp.add_constr lp [ (1., x); (1., y) ] Ilp.Lp.Le 2.);
  ignore (Ilp.Lp.add_constr lp [ (1., y) ] Ilp.Lp.Ge 0.5);
  (lp, x, y)

let test_feas_ok () =
  let lp, _, _ = small_model () in
  Alcotest.(check bool) "feasible" true (Ilp.Feas_check.is_feasible lp [| 1.; 1. |])

let test_feas_violations () =
  let lp, _, _ = small_model () in
  (* x fractional, row 0 violated, y above bound *)
  let viols = Ilp.Feas_check.check lp [| 0.5; 2.5 |] in
  Alcotest.(check int) "three violations" 3 (List.length viols)

let test_feas_objective () =
  let lp, x, y = small_model () in
  Ilp.Lp.set_objective lp ~maximize:true [ (2., x); (1., y) ];
  check_float "obj user orientation" 3.
    (Ilp.Feas_check.objective_value lp [| 1.; 1. |])

(* ---------------- Lp_format ---------------- *)

let test_lp_format () =
  let lp, _, _ = small_model () in
  Ilp.Lp.set_objective lp [ (1., Ilp.Lp.var_of_int lp 1) ] ;
  let s = Ilp.Lp_format.to_string lp in
  let contains needle =
    let nl = String.length needle and sl = String.length s in
    let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "contains %S" needle)
        true (contains needle))
    [ "Minimize"; "Subject To"; "Binary"; "End" ]


(* ---------------- Lp_parse ---------------- *)

let test_parse_simple () =
  let text =
    "\\ comment\nMaximize\n obj: 3 x + 2 y\nSubject To\n c0: x + y <= 4\n \
     c1: x + 3 y <= 6\nEnd\n"
  in
  let lp = Ilp.Lp_parse.of_string text in
  Alcotest.(check int) "vars" 2 (Ilp.Lp.num_vars lp);
  Alcotest.(check int) "rows" 2 (Ilp.Lp.num_constrs lp);
  let r = Ilp.Simplex.solve lp in
  check_float "solves" 12. (Ilp.Lp.obj_sign lp *. r.Ilp.Simplex.obj)

let test_parse_sections () =
  let text =
    "Minimize\n obj: x + y + z\nSubject To\n r: x + y - z >= 2\nBounds\n \
     -3 <= z <= 5\n y >= 1\nGeneral\n y\nBinary\n x\nEnd\n"
  in
  let lp = Ilp.Lp_parse.of_string text in
  let v name =
    let rec find j =
      if j >= Ilp.Lp.num_vars lp then Alcotest.failf "no var %s" name
      else
        let v = Ilp.Lp.var_of_int lp j in
        if Ilp.Lp.var_name lp v = name then v else find (j + 1)
    in
    find 0
  in
  Alcotest.(check bool) "x binary" true (Ilp.Lp.is_integer_var lp (v "x"));
  Alcotest.(check bool) "y integer" true (Ilp.Lp.is_integer_var lp (v "y"));
  Alcotest.(check bool) "z cont" false (Ilp.Lp.is_integer_var lp (v "z"));
  check_float "z lb" (-3.) (Ilp.Lp.var_lb lp (v "z"));
  check_float "z ub" 5. (Ilp.Lp.var_ub lp (v "z"));
  check_float "y lb" 1. (Ilp.Lp.var_lb lp (v "y"))

let test_parse_rejects () =
  List.iter
    (fun text ->
      match Ilp.Lp_parse.of_string text with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "accepted %S" text)
    [ "Minimize\n obj: \nEnd\n";
      "Minimize\n obj: x\nSubject To\n c: x ? 3\nEnd\n";
      "Minimize\n obj: x\nSubject To\n c: x <=\nEnd\n" ]

let roundtrip lp = Ilp.Lp_parse.of_string (Ilp.Lp_format.to_string lp)

let test_format_parse_roundtrip () =
  let lp = Ilp.Lp.create ~name:"rt" () in
  let x = Ilp.Lp.add_var lp ~name:"x" Ilp.Lp.Binary in
  let y = Ilp.Lp.add_var lp ~name:"y" ~lb:(-2.) ~ub:7. Ilp.Lp.Integer in
  let z = Ilp.Lp.add_var lp ~name:"z" ~ub:3.5 Ilp.Lp.Continuous in
  ignore (Ilp.Lp.add_constr lp [ (2., x); (-1., y) ] Ilp.Lp.Le 4.);
  ignore (Ilp.Lp.add_constr lp [ (1., y); (3., z) ] Ilp.Lp.Ge (-2.));
  ignore (Ilp.Lp.add_constr lp [ (1., x); (1., y); (1., z) ] Ilp.Lp.Eq 2.);
  Ilp.Lp.set_objective lp ~maximize:true [ (1., x); (2., y); (-1., z) ];
  let lp2 = roundtrip lp in
  Alcotest.(check bool) "roundtrip equal" true
    (Ilp.Lp_parse.roundtrip_equal lp lp2)

let prop_roundtrip_preserves_optimum =
  QCheck.Test.make ~name:"format/parse roundtrip preserves MILP optimum"
    ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Taskgraph.Prng.create seed in
      let lp = Ilp.Lp.create () in
      let n = 5 in
      let vars =
        Array.init n (fun i ->
            Ilp.Lp.add_var lp
              ~name:(Printf.sprintf "v%d" i)
              (if Taskgraph.Prng.bool rng 0.5 then Ilp.Lp.Binary
               else Ilp.Lp.Continuous))
      in
      for _ = 1 to 4 do
        let terms =
          Array.to_list vars
          |> List.filter_map (fun v ->
                 if Taskgraph.Prng.bool rng 0.6 then
                   Some (Float.of_int (Taskgraph.Prng.int_in rng (-3) 4), v)
                 else None)
        in
        if terms <> [] then
          ignore
            (Ilp.Lp.add_constr lp terms
               (if Taskgraph.Prng.bool rng 0.8 then Ilp.Lp.Le else Ilp.Lp.Ge)
               (Float.of_int (Taskgraph.Prng.int_in rng 0 6)))
      done;
      Array.iter
        (fun (v : Ilp.Lp.var) ->
          if not (Ilp.Lp.is_integer_var lp v) then
            Ilp.Lp.set_bounds lp v ~lb:0. ~ub:3.)
        vars;
      Ilp.Lp.set_objective lp ~maximize:true
        (Array.to_list vars
        |> List.map (fun v ->
               (Float.of_int (Taskgraph.Prng.int_in rng (-5) 5), v)));
      let lp2 = roundtrip lp in
      match (Ilp.Branch_bound.solve lp, Ilp.Branch_bound.solve lp2) with
      | (Ilp.Branch_bound.Optimal { obj = a; _ }, _),
        (Ilp.Branch_bound.Optimal { obj = b; _ }, _) ->
        Float.abs (a -. b) <= 1e-6
      | (Ilp.Branch_bound.Infeasible, _), (Ilp.Branch_bound.Infeasible, _) ->
        true
      | (Ilp.Branch_bound.Unbounded, _), (Ilp.Branch_bound.Unbounded, _) ->
        true
      | _ -> false)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "ilp-base"
    [
      ( "sparse",
        [
          Alcotest.test_case "of_assoc" `Quick test_sparse_of_assoc;
          Alcotest.test_case "negative index" `Quick test_sparse_negative_index;
          Alcotest.test_case "dot_dense" `Quick test_sparse_dot_dense;
          Alcotest.test_case "add_to_dense" `Quick test_sparse_add_to_dense;
          Alcotest.test_case "iter/fold" `Quick test_sparse_iter_fold;
          qt sparse_roundtrip;
        ] );
      ( "lp",
        [
          Alcotest.test_case "vars" `Quick test_lp_vars;
          Alcotest.test_case "bad bounds" `Quick test_lp_bad_bounds;
          Alcotest.test_case "objective sign" `Quick test_lp_objective_sign;
          Alcotest.test_case "rows" `Quick test_lp_rows;
          Alcotest.test_case "copy isolated" `Quick test_lp_copy_isolated;
          Alcotest.test_case "eval_linear" `Quick test_eval_linear;
        ] );
      ( "feas_check",
        [
          Alcotest.test_case "feasible point" `Quick test_feas_ok;
          Alcotest.test_case "violations" `Quick test_feas_violations;
          Alcotest.test_case "objective" `Quick test_feas_objective;
        ] );
      ("lp_format", [ Alcotest.test_case "sections" `Quick test_lp_format ]);
      ( "lp_parse",
        [
          Alcotest.test_case "simple" `Quick test_parse_simple;
          Alcotest.test_case "sections" `Quick test_parse_sections;
          Alcotest.test_case "rejects" `Quick test_parse_rejects;
          Alcotest.test_case "roundtrip" `Quick test_format_parse_roundtrip;
          qt prop_roundtrip_preserves_optimum;
        ] );
    ]
