(* Tests for Ilp.Analyze: the static model-analysis pass, exercised on
   deliberately pathological models. *)

module Lp = Ilp.Lp
module A = Ilp.Analyze

let codes r = List.map (fun (d : A.diagnostic) -> d.A.code) r.A.diagnostics

let has code r = List.mem code (codes r)

let count sev r =
  List.length
    (List.filter (fun (d : A.diagnostic) -> d.A.severity = sev) r.A.diagnostics)

(* A well-formed little model: no diagnostics at any severity. *)
let clean_model () =
  let lp = Lp.create ~name:"clean" () in
  let x = Lp.add_var lp ~name:"x" Lp.Binary in
  let y = Lp.add_var lp ~name:"y" Lp.Binary in
  let s = Lp.add_var lp ~name:"s" ~ub:5. Lp.Continuous in
  ignore (Lp.add_constr lp ~name:"pick" [ (1., x); (1., y) ] Lp.Eq 1.);
  ignore (Lp.add_constr lp ~name:"link" [ (3., x); (1., s) ] Lp.Le 4.);
  Lp.set_objective lp [ (1., x); (2., y); (0.5, s) ];
  lp

let test_clean () =
  let r = A.analyze (clean_model ()) in
  Alcotest.(check (list string)) "no diagnostics" [] (codes r);
  Alcotest.(check bool) "is_clean" true (A.is_clean r)

let test_add_constr_rejects_empty () =
  let lp = Lp.create () in
  Alcotest.check_raises "empty terms"
    (Invalid_argument "Lp.add_constr: empty term list") (fun () ->
      ignore (Lp.add_constr lp [] Lp.Le 1.))

let test_duplicate_row_names () =
  let lp = Lp.create () in
  let x = Lp.add_var lp ~name:"x" Lp.Binary in
  ignore (Lp.add_constr lp ~name:"r" [ (1., x) ] Lp.Le 1.);
  ignore (Lp.add_constr lp ~name:"r" [ (2., x) ] Lp.Le 3.);
  ignore (Lp.add_constr lp ~name:"s" [ (1., x) ] Lp.Ge 0.);
  Alcotest.(check (list (pair string (list int))))
    "duplicate names" [ ("r", [ 0; 1 ]) ] (Lp.duplicate_row_names lp);
  let r = A.analyze lp in
  Alcotest.(check bool) "warned" true (has "duplicate-row-name" r)

let test_duplicate_and_parallel_rows () =
  let lp = Lp.create () in
  let x = Lp.add_var lp ~name:"x" Lp.Binary in
  let y = Lp.add_var lp ~name:"y" Lp.Binary in
  (* a: x + y <= 1; b: 2x + 2y <= 2 is the same row scaled (duplicate);
     c: x + y <= 0.5 is parallel but tighter. *)
  ignore (Lp.add_constr lp ~name:"a" [ (1., x); (1., y) ] Lp.Le 1.);
  ignore (Lp.add_constr lp ~name:"b" [ (2., x); (2., y) ] Lp.Le 2.);
  ignore (Lp.add_constr lp ~name:"c" [ (1., x); (1., y) ] Lp.Le 0.5);
  let r = A.analyze lp in
  Alcotest.(check bool) "duplicate" true (has "duplicate-row" r);
  Alcotest.(check bool) "parallel" true (has "parallel-row" r);
  Alcotest.(check int) "no errors" 0 (count A.Error r)

let test_contradictory_equalities () =
  let lp = Lp.create () in
  let x = Lp.add_var lp ~name:"x" ~ub:10. Lp.Continuous in
  let y = Lp.add_var lp ~name:"y" ~ub:10. Lp.Continuous in
  ignore (Lp.add_constr lp ~name:"e1" [ (1., x); (1., y) ] Lp.Eq 3.);
  ignore (Lp.add_constr lp ~name:"e2" [ (2., x); (2., y) ] Lp.Eq 8.);
  Lp.set_objective lp [ (1., x) ];
  let r = A.analyze lp in
  Alcotest.(check bool) "contradiction" true
    (has "contradictory-parallel-rows" r);
  Alcotest.(check bool) "not clean" false (A.is_clean r)

let test_trivially_infeasible_and_redundant () =
  let lp = Lp.create () in
  let x = Lp.add_var lp ~name:"x" Lp.Binary in
  let y = Lp.add_var lp ~name:"y" Lp.Binary in
  (* activity of x + y is within [0, 2]: >= 3 can never hold, <= 2 always *)
  ignore (Lp.add_constr lp ~name:"force" [ (1., x); (1., y) ] Lp.Ge 3.);
  ignore (Lp.add_constr lp ~name:"slack" [ (1., x); (1., y) ] Lp.Le 2.);
  Lp.set_objective lp [ (1., x) ];
  let r = A.analyze lp in
  Alcotest.(check bool) "infeasible" true (has "trivially-infeasible-row" r);
  Alcotest.(check bool) "redundant" true (has "trivially-redundant-row" r)

let test_variable_checks () =
  let lp = Lp.create () in
  let x = Lp.add_var lp ~name:"x" Lp.Binary in
  let _unused = Lp.add_var lp ~name:"unused" Lp.Continuous in
  let hole = Lp.add_var lp ~name:"hole" ~lb:0.4 ~ub:0.6 Lp.Integer in
  let b = Lp.add_var lp ~name:"b" Lp.Binary in
  Lp.set_bounds lp b ~lb:0. ~ub:0.5;
  ignore
    (Lp.add_constr lp ~name:"r" [ (1., x); (1., hole); (1., b) ] Lp.Le 2.);
  Lp.set_objective lp [ (1., x) ];
  let r = A.analyze lp in
  Alcotest.(check bool) "unused" true (has "unused-variable" r);
  Alcotest.(check bool) "empty domain" true (has "empty-integer-domain" r);
  Alcotest.(check bool) "binary bounds" true (has "binary-bounds" r);
  (* an unused variable with an objective coefficient is not dangling *)
  let lp2 = Lp.create () in
  let z = Lp.add_var lp2 ~name:"z" ~ub:1. Lp.Continuous in
  let w = Lp.add_var lp2 ~name:"w" ~ub:1. Lp.Continuous in
  ignore (Lp.add_constr lp2 ~name:"r" [ (1., w) ] Lp.Le 1.);
  Lp.set_objective lp2 [ (1., z) ];
  Alcotest.(check bool) "in-objective is used" false
    (has "unused-variable" (A.analyze lp2))

let test_zero_coefficient_and_conditioning () =
  let lp = Lp.create () in
  let x = Lp.add_var lp ~name:"x" Lp.Binary in
  let y = Lp.add_var lp ~name:"y" Lp.Binary in
  ignore (Lp.add_constr lp ~name:"z" [ (0., x); (1., y) ] Lp.Le 1.);
  ignore (Lp.add_constr lp ~name:"big" [ (1e9, x); (1., y) ] Lp.Le 1e9);
  Lp.set_objective lp [ (1., x) ];
  let r = A.analyze lp in
  Alcotest.(check bool) "zero coeff" true (has "zero-coefficient" r);
  Alcotest.(check bool) "conditioning" true (has "ill-conditioned" r);
  (* the JSON rendering parses back to the same diagnostics *)
  let json =
    match Ilp.Json.parse (Ilp.Json.to_string (A.to_json r)) with
    | Ok j -> j
    | Error e -> Alcotest.failf "json does not parse: %s" e
  in
  let field key d = Option.bind (Ilp.Json.member key d) Ilp.Json.str in
  let diags =
    Ilp.Json.to_list
      (Option.value ~default:Ilp.Json.Null (Ilp.Json.member "diagnostics" json))
  in
  Alcotest.(check (list (option string))) "json codes"
    (List.map Option.some (codes r))
    (List.map (field "code") diags);
  Alcotest.(check (list (option string))) "json messages"
    (List.map (fun (d : A.diagnostic) -> Some d.A.message) r.A.diagnostics)
    (List.map (field "message") diags);
  Alcotest.(check (list (option int))) "json rows"
    (List.map (fun (d : A.diagnostic) -> d.A.row) r.A.diagnostics)
    (List.map
       (fun d -> Option.bind (Ilp.Json.member "row" d) Ilp.Json.int)
       diags)

let test_classification () =
  let lp = Lp.create () in
  let x = Lp.add_var lp ~name:"x" Lp.Binary in
  let y = Lp.add_var lp ~name:"y" Lp.Binary in
  let s = Lp.add_var lp ~name:"s" ~ub:9. Lp.Continuous in
  let mk terms sense rhs = Lp.add_constr lp terms sense rhs in
  let part = mk [ (1., x); (1., y) ] Lp.Eq 1. in
  let pack = mk [ (1., x); (1., y) ] Lp.Le 1. in
  let cover = mk [ (1., x); (1., y) ] Lp.Ge 1. in
  let prec = mk [ (1., x); (-1., y) ] Lp.Le 0. in
  let knap = mk [ (3., x); (5., y) ] Lp.Le 7. in
  let bigm = mk [ (1., s); (-9., x) ] Lp.Le 0.5 in
  let vb = mk [ (1., s) ] Lp.Le 4. in
  Lp.set_objective lp [ (1., x) ];
  let check name expected row =
    Alcotest.(check string)
      name
      (A.row_class_to_string expected)
      (A.row_class_to_string (A.classify_row lp row))
  in
  check "partitioning" A.Set_partitioning part;
  check "packing" A.Set_packing pack;
  check "covering" A.Set_covering cover;
  check "precedence" A.Precedence prec;
  check "knapsack" A.Knapsack knap;
  check "big-M" A.Big_m bigm;
  check "variable bound" A.Variable_bound vb;
  let census = (A.analyze lp).A.census in
  Alcotest.(check (option int))
    "census partitioning" (Some 1)
    (List.assoc_opt A.Set_partitioning census)

let test_stats_and_json () =
  let r = A.analyze (clean_model ()) in
  Alcotest.(check int) "nnz" 4 r.A.stats.A.nnz;
  Alcotest.(check (float 1e-9)) "max" 3. r.A.stats.A.max_abs;
  Alcotest.(check (float 1e-9)) "min" 1. r.A.stats.A.min_abs;
  match Ilp.Json.parse (Ilp.Json.to_string (A.to_json r)) with
  | Error e -> Alcotest.failf "json does not parse: %s" e
  | Ok j ->
    let get path =
      List.fold_left (fun v k -> Option.bind v (Ilp.Json.member k)) (Some j) path
    in
    Alcotest.(check (option string)) "json model" (Some "clean")
      (Option.bind (get [ "model" ]) Ilp.Json.str);
    Alcotest.(check (option int)) "json nnz" (Some 4)
      (Option.bind (get [ "coefficients"; "nnz" ]) Ilp.Json.int);
    Alcotest.(check (option (float 1e-9))) "json max" (Some 3.)
      (Option.bind (get [ "coefficients"; "max_abs" ]) Ilp.Json.num);
    Alcotest.(check bool) "json empty diags" true
      (get [ "diagnostics" ] = Some (Ilp.Json.Arr []))

let test_formulation_models_clean () =
  (* every example graph under every formulation preset analyzes clean *)
  let presets =
    [
      ("default", Temporal.Formulation.default_options);
      ("base", Temporal.Formulation.base_options);
      ("tightened", Temporal.Formulation.tightened_options);
    ]
  in
  List.iter
    (fun (gname, g) ->
      let spec =
        Temporal.Spec.make ~graph:g
          ~allocation:(Hls.Component.ams (2, 2, 1))
          ~capacity:70 ~scratch:30 ~latency_relax:1 ~num_partitions:2 ()
      in
      List.iter
        (fun (pname, options) ->
          let vars = Temporal.Formulation.build ~options spec in
          let r = A.analyze vars.Temporal.Vars.lp in
          Alcotest.(check int)
            (Printf.sprintf "%s/%s errors" gname pname)
            0
            (List.length (A.errors r)))
        presets)
    [
      ("figure1", Taskgraph.Examples.figure1 ());
      ("diamond", Taskgraph.Examples.diamond ());
      ("chain4", Taskgraph.Examples.chain 4);
    ]

let () =
  Alcotest.run "analyze"
    [
      ( "diagnostics",
        [
          Alcotest.test_case "clean model" `Quick test_clean;
          Alcotest.test_case "add_constr rejects empty" `Quick
            test_add_constr_rejects_empty;
          Alcotest.test_case "duplicate row names" `Quick
            test_duplicate_row_names;
          Alcotest.test_case "duplicate/parallel rows" `Quick
            test_duplicate_and_parallel_rows;
          Alcotest.test_case "contradictory equalities" `Quick
            test_contradictory_equalities;
          Alcotest.test_case "bound arithmetic" `Quick
            test_trivially_infeasible_and_redundant;
          Alcotest.test_case "variable checks" `Quick test_variable_checks;
          Alcotest.test_case "zero coeff / conditioning" `Quick
            test_zero_coefficient_and_conditioning;
        ] );
      ( "structure",
        [
          Alcotest.test_case "row classification" `Quick test_classification;
          Alcotest.test_case "stats and json" `Quick test_stats_and_json;
          Alcotest.test_case "formulation models clean" `Quick
            test_formulation_models_clean;
        ] );
    ]
