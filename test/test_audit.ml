(* Tests for Temporal.Audit: the formulation-shape auditor, checked on
   clean builds across option presets and on seeded model mutations. *)

module Lp = Ilp.Lp
module F = Temporal.Formulation
module Audit = Temporal.Audit

let presets =
  [
    ("default", F.default_options);
    ("base", F.base_options);
    ("tightened", F.tightened_options);
    ("fortet", { F.tightened_options with F.linearization = F.Fortet });
    ("literal", { F.base_options with F.literal_cs_exclusion = true });
  ]

let graphs () =
  [
    ("figure1", Taskgraph.Examples.figure1 ());
    ("diamond", Taskgraph.Examples.diamond ());
    ("chain3", Taskgraph.Examples.chain 3);
    ("mixer", Taskgraph.Examples.mixer ());
  ]

let spec_of g ~n =
  Temporal.Spec.make ~graph:g
    ~allocation:(Hls.Component.ams (2, 2, 1))
    ~capacity:70 ~scratch:30 ~latency_relax:1 ~num_partitions:n ()

let finding_codes r =
  List.map (fun (f : Audit.finding) -> f.Audit.code) (Audit.errors r)

(* Rebuild the model with every row except [victim]: same variables in
   the same order, so indices keep their meaning. *)
let strip_row lp victim =
  let lp' = Lp.create ~name:(Lp.name lp) () in
  for j = 0 to Lp.num_vars lp - 1 do
    let v = Lp.var_of_int lp j in
    ignore
      (Lp.add_var lp' ~name:(Lp.var_name lp v) ~lb:(Lp.var_lb lp v)
         ~ub:(Lp.var_ub lp v) (Lp.var_kind lp v))
  done;
  let removed = ref 0 in
  Lp.iter_rows lp (fun i terms sense rhs ->
      if Lp.row_name lp i = victim then incr removed
      else
        ignore
          (Lp.add_constr lp' ~name:(Lp.row_name lp i)
             (List.map
                (fun (c, (v : Lp.var)) -> (c, Lp.var_of_int lp' (v :> int)))
                terms)
             sense rhs));
  Alcotest.(check int) (Printf.sprintf "removed %s" victim) 1 !removed;
  lp'

let test_clean_across_presets () =
  List.iter
    (fun (gname, g) ->
      List.iter
        (fun n ->
          let spec = spec_of g ~n in
          List.iter
            (fun (pname, options) ->
              let vars = F.build ~options spec in
              let r = Audit.audit_vars vars in
              let label what =
                Printf.sprintf "%s n=%d %s %s" gname n pname what
              in
              Alcotest.(check (list string)) (label "errors") []
                (finding_codes r);
              Alcotest.(check bool) (label "options recorded") true
                (vars.Temporal.Vars.options = options);
              Alcotest.(check int)
                (label "var census")
                (Temporal.Vars.num_vars vars)
                r.Audit.census.Audit.total_vars;
              Alcotest.(check int)
                (label "row census")
                (Temporal.Vars.num_constrs vars)
                r.Audit.census.Audit.total_rows)
            presets)
        [ 1; 2; 3 ])
    (graphs ())

let test_missing_row_detected () =
  let spec = spec_of (Taskgraph.Examples.diamond ()) ~n:2 in
  let options = F.default_options in
  let vars = F.build ~options spec in
  let tampered = strip_row vars.Temporal.Vars.lp "uniq_t0" in
  let r = Audit.audit ~options spec tampered in
  Alcotest.(check bool) "not clean" false (Audit.is_clean r);
  let messages =
    List.map (fun (f : Audit.finding) -> f.Audit.message) (Audit.errors r)
  in
  Alcotest.(check bool) "missing-row finding" true
    (List.mem "missing-row" (finding_codes r));
  Alcotest.(check bool) "names the victim row" true
    (List.exists
       (fun m ->
         let n = String.length "uniq_t0" and h = String.length m in
         let rec go i = i + n <= h && (String.sub m i n = "uniq_t0" || go (i + 1)) in
         go 0)
       messages)

let test_unexpected_tightening_rows () =
  (* built with the tightening cuts, audited as if without: every cut28/
     cut29 row is unexpected and the row census disagrees *)
  let spec = spec_of (Taskgraph.Examples.diamond ()) ~n:2 in
  let vars = F.build ~options:F.tightened_options spec in
  let r = Audit.audit ~options:F.base_options spec vars.Temporal.Vars.lp in
  let codes = finding_codes r in
  Alcotest.(check bool) "unexpected-row" true (List.mem "unexpected-row" codes);
  Alcotest.(check bool) "row-census" true (List.mem "row-census" codes)

let test_linearization_kind_checked () =
  (* Glover build audited as Fortet: the z variables must be flagged as
     having the wrong integrality *)
  let spec = spec_of (Taskgraph.Examples.diamond ()) ~n:2 in
  let vars = F.build ~options:F.tightened_options spec in
  let fortet = { F.tightened_options with F.linearization = F.Fortet } in
  let r = Audit.audit ~options:fortet spec vars.Temporal.Vars.lp in
  Alcotest.(check bool) "variable-kind" true
    (List.mem "variable-kind" (finding_codes r))

let test_census_standalone () =
  let spec = spec_of (Taskgraph.Examples.figure1 ()) ~n:3 in
  List.iter
    (fun (pname, options) ->
      let c = Audit.census ~options spec in
      let vars = F.build ~options spec in
      Alcotest.(check int)
        (pname ^ " vars") (Temporal.Vars.num_vars vars) c.Audit.total_vars;
      Alcotest.(check int)
        (pname ^ " rows")
        (Temporal.Vars.num_constrs vars)
        c.Audit.total_rows;
      Alcotest.(check int)
        (pname ^ " family sum")
        c.Audit.total_vars
        (List.fold_left (fun a (_, n) -> a + n) 0 c.Audit.var_families))
    presets

let test_solver_lint () =
  (* [Solver.solve ~lint:true] audits under the options the model was
     built with, so every preset passes; a model missing a row fails *)
  let spec = spec_of (Taskgraph.Examples.chain 3) ~n:2 in
  List.iter
    (fun (pname, options) ->
      let vars = F.build ~options spec in
      match Temporal.Solver.solve ~lint:true vars with
      | _ -> ()
      | exception Failure msg -> Alcotest.failf "%s: %s" pname msg)
    presets;
  let vars = F.build spec in
  let tampered =
    { vars with Temporal.Vars.lp = strip_row vars.Temporal.Vars.lp "uniq_t0" }
  in
  match Temporal.Solver.solve ~lint:true tampered with
  | _ -> Alcotest.fail "lint passed a model missing uniq_t0"
  | exception Failure _ -> ()

let parse_json r =
  match Ilp.Json.parse (Ilp.Json.to_string (Audit.to_json r)) with
  | Ok j -> j
  | Error e -> Alcotest.failf "audit json does not parse: %s" e

let test_json_shape () =
  let spec = spec_of (Taskgraph.Examples.chain 3) ~n:2 in
  let vars = F.build spec in
  let r = Audit.audit_vars vars in
  let j = parse_json r in
  let member k = Ilp.Json.member k j in
  Alcotest.(check bool) "findings key" true
    (member "findings" = Some (Ilp.Json.Arr []));
  Alcotest.(check (option int)) "expected vars"
    (Some r.Audit.census.Audit.total_vars)
    (Option.bind (Option.bind (member "vars") (Ilp.Json.member "expected"))
       Ilp.Json.int);
  Alcotest.(check (option int)) "y family"
    (List.assoc_opt "y" r.Audit.census.Audit.var_families)
    (Option.bind (Option.bind (member "var_census") (Ilp.Json.member "y"))
       Ilp.Json.int);
  Alcotest.(check bool) "row census key" true (member "row_census" <> None)

let test_json_escapes () =
  (* a message holding a backslash, a quote and a newline survives the
     printer and the parser unchanged *)
  let message = "row \\ \"q\"\nnext line" in
  let spec = spec_of (Taskgraph.Examples.chain 3) ~n:2 in
  let census = Audit.census ~options:F.default_options spec in
  let r =
    {
      Audit.findings =
        [ { Audit.severity = Ilp.Analyze.Error; code = "missing-row"; message } ];
      census;
      actual_vars = 0;
      actual_rows = 0;
    }
  in
  let findings =
    Ilp.Json.to_list
      (Option.value ~default:Ilp.Json.Null
         (Ilp.Json.member "findings" (parse_json r)))
  in
  Alcotest.(check (list (option string))) "message round-trips" [ Some message ]
    (List.map
       (fun f -> Option.bind (Ilp.Json.member "message" f) Ilp.Json.str)
       findings)

let () =
  Alcotest.run "audit"
    [
      ( "clean",
        [
          Alcotest.test_case "all presets, all graphs" `Quick
            test_clean_across_presets;
          Alcotest.test_case "census standalone" `Quick test_census_standalone;
          Alcotest.test_case "json" `Quick test_json_shape;
          Alcotest.test_case "json escapes" `Quick test_json_escapes;
        ] );
      ( "mutations",
        [
          Alcotest.test_case "missing uniq row" `Quick test_missing_row_detected;
          Alcotest.test_case "unexpected tightening rows" `Quick
            test_unexpected_tightening_rows;
          Alcotest.test_case "linearization kind" `Quick
            test_linearization_kind_checked;
          Alcotest.test_case "solver lint" `Quick test_solver_lint;
        ] );
    ]
