(* Tests for the bench-report comparator: section/row discovery on
   hand-built JSON reports, threshold-driven regression/improvement
   flagging (times vs counts vs speedups), solved/result status
   transitions, tolerance to missing rows, and the schema-mismatch
   error paths behind exit code 2. *)

module D = Temporal.Bench_diff
module J = Ilp.Json

let parse s =
  match J.parse s with
  | Ok j -> j
  | Error e -> Alcotest.failf "test JSON invalid: %s" e

let diff ?time_threshold ?count_threshold a b =
  match D.diff ?time_threshold ?count_threshold (parse a) (parse b) with
  | Ok r -> r
  | Error e -> Alcotest.failf "unexpected schema mismatch: %s" e

let base =
  {|{"host": {"cores": 8, "ocaml": "5.1"},
     "root_geomean_speedup": 2.0,
     "lp": [
       {"graph": 1, "n": 3, "l": 1, "solve_s": 1.0, "pivots": 100,
        "solved": true, "result": "optimal", "fill": 500},
       {"graph": 2, "n": 4, "l": 1, "solve_s": 10.0, "pivots": 2000,
        "solved": true, "result": "optimal", "fill": 900}
     ]}|}

let with_changes ~solve0 ~pivots1 ~fill1 ~speedup =
  Printf.sprintf
    {|{"host": {"cores": 8, "ocaml": "5.1"},
       "root_geomean_speedup": %g,
       "lp": [
         {"graph": 1, "n": 3, "l": 1, "solve_s": %g, "pivots": 100,
          "solved": true, "result": "optimal", "fill": 500},
         {"graph": 2, "n": 4, "l": 1, "solve_s": 10.0, "pivots": %d,
          "solved": true, "result": "optimal", "fill": %d}
       ]}|}
    speedup solve0 pivots1 fill1

let count_sev r sev =
  List.length (List.filter (fun (c : D.cell) -> c.D.c_severity = sev) r.D.r_cells)

let test_identical_clean () =
  let r = diff base base in
  Alcotest.(check (list string)) "sections" [ "lp"; "(top-level)" ]
    r.D.r_sections;
  Alcotest.(check int) "no regressions" 0 r.D.r_regressions;
  Alcotest.(check int) "no improvements" 0 r.D.r_improvements;
  Alcotest.(check (list reject)) "no changed cells" [] r.D.r_cells;
  Alcotest.(check bool) "cells compared" true (r.D.r_compared > 0)

let test_time_regression_flagged () =
  (* 3x slowdown on a 1 s cell: over the default 1.5x threshold *)
  let r =
    diff base (with_changes ~solve0:3.0 ~pivots1:2000 ~fill1:900 ~speedup:2.0)
  in
  Alcotest.(check int) "one regression" 1 r.D.r_regressions;
  let c = List.find (fun (c : D.cell) -> c.D.c_severity = D.Regression) r.D.r_cells in
  Alcotest.(check string) "field" "solve_s" c.D.c_field;
  Alcotest.(check string) "section" "lp" c.D.c_section;
  Alcotest.(check bool) "time-like" true c.D.c_time;
  Alcotest.(check (float 1e-9)) "ratio" 3.0 c.D.c_ratio

let test_time_improvement_flagged () =
  let r =
    diff base (with_changes ~solve0:0.4 ~pivots1:2000 ~fill1:900 ~speedup:2.0)
  in
  Alcotest.(check int) "no regressions" 0 r.D.r_regressions;
  Alcotest.(check int) "one improvement" 1 r.D.r_improvements

let test_within_noise_not_flagged () =
  (* 1.2x slowdown stays inside the default 1.5x band *)
  let r =
    diff base (with_changes ~solve0:1.2 ~pivots1:2000 ~fill1:900 ~speedup:2.0)
  in
  Alcotest.(check int) "no regressions" 0 r.D.r_regressions;
  Alcotest.(check int) "recorded as noise" 1 (count_sev r D.Within_noise);
  (* a tighter threshold flags the same delta *)
  let r = diff ~time_threshold:1.1 base
      (with_changes ~solve0:1.2 ~pivots1:2000 ~fill1:900 ~speedup:2.0)
  in
  Alcotest.(check int) "tighter threshold flags it" 1 r.D.r_regressions

let test_count_and_speedup_direction () =
  (* pivots 2000 -> 2500 (1.25x > 1.1 default): effort regression;
     speedup 2.0 -> 1.0: higher-is-better regression;
     fill 900 -> 5000: informational, never flagged *)
  let r =
    diff base (with_changes ~solve0:1.0 ~pivots1:2500 ~fill1:5000 ~speedup:1.0)
  in
  Alcotest.(check int) "two regressions" 2 r.D.r_regressions;
  let fields =
    List.filter_map
      (fun (c : D.cell) ->
        if c.D.c_severity = D.Regression then Some c.D.c_field else None)
      r.D.r_cells
  in
  Alcotest.(check bool) "pivots flagged" true (List.mem "pivots" fields);
  Alcotest.(check bool) "speedup flagged" true
    (List.mem "root_geomean_speedup" fields);
  Alcotest.(check bool) "fill informational" true
    (not (List.mem "fill" fields));
  (* speedup going up is an improvement, not a regression *)
  let r =
    diff base (with_changes ~solve0:1.0 ~pivots1:2000 ~fill1:900 ~speedup:4.0)
  in
  Alcotest.(check int) "no regressions" 0 r.D.r_regressions;
  Alcotest.(check int) "one improvement" 1 r.D.r_improvements

let test_solved_transition () =
  let broken =
    {|{"lp": [
        {"graph": 1, "n": 3, "l": 1, "solve_s": 1.0, "pivots": 100,
         "solved": false, "result": "timeout", "fill": 500},
        {"graph": 2, "n": 4, "l": 1, "solve_s": 10.0, "pivots": 2000,
         "solved": true, "result": "optimal", "fill": 900}
      ]}|}
  in
  let r = diff base broken in
  (* solved true->false and result "optimal"->"timeout" both regress *)
  Alcotest.(check int) "two status regressions" 2 r.D.r_regressions;
  Alcotest.(check int) "described" 2 (List.length r.D.r_status_changes);
  (* --ignore drops both fields from the comparison entirely (the CI
     quick-vs-committed diff runs under different time budgets) *)
  (match D.diff ~ignore:[ "solved"; "result" ] (parse base) (parse broken) with
  | Error e -> Alcotest.failf "ignore broke the diff: %s" e
  | Ok r ->
    Alcotest.(check int) "ignored fields don't regress" 0 r.D.r_regressions;
    Alcotest.(check int) "no status changes" 0
      (List.length r.D.r_status_changes));
  (* and the reverse direction is an improvement, not a regression *)
  let r = diff broken base in
  Alcotest.(check int) "false->true not a regression" 1 r.D.r_regressions
  (* result string changing back still counts as a change to review *)

let test_missing_rows_tolerated () =
  let shrunk =
    {|{"lp": [
        {"graph": 1, "n": 3, "l": 1, "solve_s": 1.0, "pivots": 100,
         "solved": true, "result": "optimal", "fill": 500}
      ]}|}
  in
  let r = diff base shrunk in
  Alcotest.(check int) "no regressions" 0 r.D.r_regressions;
  Alcotest.(check int) "one missing row" 1 (List.length r.D.r_missing_rows);
  let section, row = List.hd r.D.r_missing_rows in
  Alcotest.(check string) "section" "lp" section;
  Alcotest.(check string) "row key" "graph=2 n=4 l=1" row;
  let r = diff shrunk base in
  Alcotest.(check int) "new row on the other side" 1
    (List.length r.D.r_new_rows)

let test_schema_mismatch () =
  let alien = {|{"totally": "different", "payload": [1, 2, 3]}|} in
  (match D.diff (parse base) (parse alien) with
   | Ok _ -> Alcotest.fail "disjoint schemas accepted"
   | Error _ -> ());
  (match D.diff (parse "[1, 2]") (parse base) with
   | Ok _ -> Alcotest.fail "non-object accepted"
   | Error e ->
     Alcotest.(check bool) "names the side" true
       (String.length e > 0 && String.sub e 0 3 = "OLD"));
  (* same section name but rows that never align is a mismatch too *)
  let other_rows =
    {|{"lp": [{"graph": 9, "n": 9, "l": 9, "solve_s": 1.0}]}|}
  in
  match D.diff (parse other_rows) (parse base) with
  | Ok _ -> Alcotest.fail "non-overlapping rows accepted"
  | Error _ -> ()

let test_scalar_section () =
  (* dict-shaped sections (BENCH_trace.json's "trace") compare
     field-wise as a single row *)
  let a = {|{"trace": {"events": 100, "overhead_ns": 12.5}}|} in
  let b = {|{"trace": {"events": 100, "overhead_ns": 50.0}}|} in
  let r = diff a b in
  Alcotest.(check (list string)) "section found" [ "trace" ] r.D.r_sections;
  Alcotest.(check int) "informational only" 0 r.D.r_regressions;
  Alcotest.(check int) "change recorded" 1 (List.length r.D.r_cells)

let test_committed_benches_self_compare () =
  (* every committed artifact must diff cleanly against itself — this
     is what keeps the CI step meaningful *)
  (* tests run from _build/default/test; the artifacts live in the
     source root (three levels up through _build), falling back to a
     skip when the checkout has not generated them *)
  let root =
    List.find_opt
      (fun d -> Sys.file_exists (Filename.concat d "BENCH_lp.json"))
      [ "../../.."; "../.."; "." ]
  in
  List.iter
    (fun name ->
      let path =
        match root with
        | Some d -> Filename.concat d name
        | None -> name
      in
      if Sys.file_exists path then
        match D.load_file path with
        | Error e -> Alcotest.failf "%s: %s" name e
        | Ok j -> (
          match D.diff j j with
          | Error e -> Alcotest.failf "%s does not self-compare: %s" name e
          | Ok r ->
            Alcotest.(check int)
              (name ^ " self-diff clean") 0 r.D.r_regressions))
    [
      "BENCH_lp.json"; "BENCH_parallel.json"; "BENCH_nodes.json";
      "BENCH_trace.json"; "BENCH_certify.json";
    ]

let () =
  Alcotest.run "bench_diff"
    [
      ( "diff",
        [
          Alcotest.test_case "identical reports are clean" `Quick
            test_identical_clean;
          Alcotest.test_case "time regression flagged" `Quick
            test_time_regression_flagged;
          Alcotest.test_case "time improvement flagged" `Quick
            test_time_improvement_flagged;
          Alcotest.test_case "noise band respected" `Quick
            test_within_noise_not_flagged;
          Alcotest.test_case "count and speedup directions" `Quick
            test_count_and_speedup_direction;
          Alcotest.test_case "solved/result transitions" `Quick
            test_solved_transition;
          Alcotest.test_case "missing rows tolerated" `Quick
            test_missing_rows_tolerated;
          Alcotest.test_case "schema mismatch rejected" `Quick
            test_schema_mismatch;
          Alcotest.test_case "scalar sections compare" `Quick
            test_scalar_section;
          Alcotest.test_case "committed benches self-compare" `Quick
            test_committed_benches_self_compare;
        ] );
    ]
