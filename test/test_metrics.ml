(* Tests for the metrics registry and its exporters: disabled-path
   semantics, the multi-domain shard merge (loss-free, monotone), the
   JSONL codec round-trip, the stream validator, the Prometheus text
   round-trip, and the acceptance pin that a final snapshot's totals
   equal the solver's own statistics exactly (sequential and jobs=2),
   plus gap reconstruction from the two --json timelines. *)

module M = Ilp.Metrics
module Export = Ilp.Metrics_export
module Json = Ilp.Json
module Bb = Ilp.Branch_bound

(* ---------------- registry semantics ---------------- *)

let test_disabled_costs_nothing () =
  Alcotest.(check bool) "disabled" false (M.enabled M.disabled);
  Alcotest.(check bool) "null inactive" false (M.active M.null_shard);
  Alcotest.(check bool)
    "main of disabled inactive" false
    (M.active (M.main M.disabled));
  (* writing through the null shard / disabled registry is a no-op *)
  M.incr M.null_shard M.C_nodes;
  M.observe M.null_shard M.H_lp_seconds 1.0;
  M.set_gauge M.disabled M.G_best_bound 42.;
  let s = M.snapshot M.disabled in
  Alcotest.(check int) "no counts" 0 (M.counter_value s M.C_nodes);
  Alcotest.(check bool)
    "gauge unset" true
    (Float.is_nan (M.gauge_value s M.G_best_bound))

let test_counters_and_hists () =
  let m = M.create () in
  let sh = M.main m in
  Alcotest.(check bool) "active" true (M.active sh);
  for _ = 1 to 10 do
    M.incr sh M.C_nodes
  done;
  M.add sh M.C_lp_pivots 32;
  M.observe sh M.H_lp_seconds 1e-5;
  M.observe sh M.H_lp_seconds 0.1;
  M.observe sh M.H_lp_seconds 1e9 (* overflow bucket *);
  M.set_gauge m M.G_best_bound 3.5;
  M.set_shared m M.C_trace_dropped_events 7;
  let s = M.snapshot m in
  Alcotest.(check int) "nodes" 10 (M.counter_value s M.C_nodes);
  Alcotest.(check int) "pivots" 32 (M.counter_value s M.C_lp_pivots);
  Alcotest.(check int) "shared" 7 (M.counter_value s M.C_trace_dropped_events);
  Alcotest.(check (float 1e-9)) "gauge" 3.5 (M.gauge_value s M.G_best_bound);
  let h = M.hist_value s M.H_lp_seconds in
  Alcotest.(check int) "hist count" 3 h.M.h_count;
  Alcotest.(check int)
    "count = bucket sum" h.M.h_count
    (Array.fold_left ( + ) 0 h.M.h_buckets);
  Alcotest.(check bool) "max kept" true (h.M.h_max >= 1e9);
  Alcotest.(check int)
    "overflow bucket" 1
    h.M.h_buckets.(M.n_buckets - 1)

(* QCheck property (the issue's merge contract): spawn several domains,
   each counting into its own shard; the snapshot taken after every
   domain joined must be the exact sum, and the histogram cells must be
   consistent (count = bucket sum). *)
let merge_property =
  QCheck.Test.make ~count:20 ~name:"multi-domain merge exact after join"
    QCheck.(pair (int_range 1 4) (int_range 1 1000))
    (fun (ndoms, nevents) ->
      let m = M.create () in
      let worker d () =
        let sh = M.make_shard m in
        for i = 0 to nevents - 1 do
          M.incr sh M.C_nodes;
          M.add sh M.C_lp_pivots 2;
          if i land 7 = 0 then
            M.observe sh M.H_lp_seconds (1e-6 *. Float.of_int ((d * i) + 1))
        done
      in
      let doms = Array.init ndoms (fun d -> Domain.spawn (worker d)) in
      Array.iter Domain.join doms;
      let s = M.snapshot m in
      if M.counter_value s M.C_nodes <> ndoms * nevents then
        QCheck.Test.fail_reportf "lost counts: %d <> %d"
          (M.counter_value s M.C_nodes)
          (ndoms * nevents);
      if M.counter_value s M.C_lp_pivots <> 2 * ndoms * nevents then
        QCheck.Test.fail_report "add not summed";
      let h = M.hist_value s M.H_lp_seconds in
      let expected_obs = ndoms * ((nevents + 7) / 8) in
      if h.M.h_count <> expected_obs then
        QCheck.Test.fail_reportf "hist count %d <> %d" h.M.h_count
          expected_obs;
      if h.M.h_count <> Array.fold_left ( + ) 0 h.M.h_buckets then
        QCheck.Test.fail_report "hist count <> bucket sum";
      true)

(* ---------------- JSONL codec ---------------- *)

(* A pseudo-random but deterministic snapshot generator driven by the
   QCheck seed: exercise every instrument family. *)
let snapshot_gen =
  QCheck.make
    QCheck.Gen.(
      let* seed = int_range 1 1_000_000 in
      return
        (let m = M.create () in
         let sh = M.main m in
         let r = ref seed in
         let next bound =
           r := ((!r * 1103515245) + 12345) land 0x3FFFFFFF;
           !r mod bound
         in
         Array.iter (fun c -> M.add sh c (next 1000)) M.all_counters;
         Array.iter
           (fun g ->
             if next 3 > 0 then
               M.set_gauge m g (Float.of_int (next 1000) /. 8.))
           M.all_gauges;
         Array.iter
           (fun h ->
             for _ = 1 to next 50 do
               M.observe sh h (Float.of_int (next 10_000_000) *. 1e-7)
             done)
           M.all_histograms;
         M.snapshot m))

let snapshots_equal (a : M.snapshot) (b : M.snapshot) =
  let feq x y = x = y || (Float.is_nan x && Float.is_nan y) in
  a.M.s_counters = b.M.s_counters
  && Array.for_all2 feq a.M.s_gauges b.M.s_gauges
  && Array.for_all2
       (fun (x : M.hist) (y : M.hist) ->
         x.M.h_count = y.M.h_count
         && feq x.M.h_sum y.M.h_sum && feq x.M.h_max y.M.h_max
         && x.M.h_buckets = y.M.h_buckets)
       a.M.s_hists b.M.s_hists

let jsonl_roundtrip_property =
  QCheck.Test.make ~count:50 ~name:"jsonl codec round-trips" snapshot_gen
    (fun snap ->
      match Export.snapshot_of_json (Export.snapshot_to_json snap) with
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e
      | Ok back ->
        if not (snapshots_equal snap back) then
          QCheck.Test.fail_report "snapshot did not round-trip";
        if Float.abs (back.M.s_ts -. snap.M.s_ts) > 1e-9 then
          QCheck.Test.fail_report "timestamp did not round-trip";
        true)

let test_validator () =
  let m = M.create () in
  let sh = M.main m in
  M.incr sh M.C_nodes;
  let s1 = M.snapshot m in
  M.add sh M.C_nodes 5;
  M.observe sh M.H_factor_seconds 1e-4;
  let s2 = M.snapshot m in
  (match Export.check [ s1; s2 ] with
   | Ok () -> ()
   | Error e -> Alcotest.failf "healthy stream rejected: %s" e);
  (match Export.check [] with
   | Ok () -> Alcotest.fail "empty stream accepted"
   | Error _ -> ());
  (* counters running backwards must be rejected *)
  (match Export.check [ s2; s1 ] with
   | Ok () -> Alcotest.fail "regressing counters accepted"
   | Error _ -> ());
  (* and monotonize repairs exactly that *)
  match Export.check [ s2; Export.monotonize s2 s1 ] with
  | Ok () -> ()
  | Error e -> Alcotest.failf "monotonized stream rejected: %s" e

let test_jsonl_file_roundtrip () =
  let m = M.create () in
  let sh = M.main m in
  let path = Filename.temp_file "metrics" ".jsonl" in
  let oc = open_out path in
  let prev = ref M.empty_snapshot in
  for i = 1 to 3 do
    M.add sh M.C_nodes i;
    M.observe sh M.H_lp_seconds (Float.of_int i *. 1e-4);
    let s = Export.monotonize !prev (M.snapshot m) in
    prev := s;
    Export.write_jsonl oc s
  done;
  close_out oc;
  (match Export.load path with
   | Error e -> Alcotest.failf "load failed: %s" e
   | Ok snaps ->
     Alcotest.(check int) "three snapshots" 3 (List.length snaps);
     (match Export.check snaps with
      | Ok () -> ()
      | Error e -> Alcotest.failf "stream invalid: %s" e);
     let last = List.nth snaps 2 in
     Alcotest.(check int) "final nodes" 6 (M.counter_value last M.C_nodes));
  Sys.remove path

(* ---------------- Prometheus ---------------- *)

let test_prometheus_roundtrip () =
  let m = M.create () in
  let sh = M.main m in
  M.add sh M.C_nodes 17;
  M.add sh M.C_lp_pivots 123;
  M.observe sh M.H_factor_seconds 3e-5;
  M.observe sh M.H_factor_seconds 0.5;
  M.set_gauge m M.G_best_bound 2.25;
  let snap = M.snapshot m in
  let text = Export.prometheus snap in
  match Export.parse_prometheus text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok samples ->
    let value name =
      match
        List.find_opt (fun (n, labels, _) -> n = name && labels = []) samples
      with
      | Some (_, _, v) -> v
      | None -> Alcotest.failf "missing sample %s" name
    in
    Alcotest.(check (float 0.)) "counter" 17. (value "tpart_nodes_total");
    Alcotest.(check (float 0.)) "pivots" 123. (value "tpart_lp_pivots_total");
    Alcotest.(check (float 1e-12)) "gauge" 2.25 (value "tpart_best_bound");
    Alcotest.(check (float 0.)) "hist count" 2.
      (value "tpart_factor_seconds_count");
    Alcotest.(check (float 1e-9)) "hist sum" (3e-5 +. 0.5)
      (value "tpart_factor_seconds_sum");
    (* the +Inf bucket carries the total count *)
    let inf_bucket =
      List.find_opt
        (fun (n, labels, _) ->
          n = "tpart_factor_seconds_bucket"
          && List.mem_assoc "le" labels
          && List.assoc "le" labels = "+Inf")
        samples
    in
    (match inf_bucket with
     | Some (_, _, v) -> Alcotest.(check (float 0.)) "+Inf bucket" 2. v
     | None -> Alcotest.fail "no +Inf bucket");
    (* unset gauges are omitted *)
    Alcotest.(check bool)
      "unset gauge omitted" true
      (not
         (List.exists (fun (n, _, _) -> n = "tpart_pool_depth") samples))

(* ---------------- exactness against solver stats ---------------- *)

(* Same knapsack-flavoured sample model as test_trace.ml: a nontrivial
   tree in microseconds. *)
let sample_lp () =
  let lp = Ilp.Lp.create () in
  let n = 8 in
  let xs =
    Array.init n (fun i ->
        Ilp.Lp.add_var lp ~name:(Printf.sprintf "x%d" i) Ilp.Lp.Binary)
  in
  Ilp.Lp.set_objective lp ~maximize:true
    (Array.to_list
       (Array.mapi (fun i x -> (Float.of_int ((i mod 4) + 1), x)) xs));
  ignore
    (Ilp.Lp.add_constr lp ~name:"cap"
       (Array.to_list
          (Array.mapi (fun i x -> (Float.of_int ((i mod 3) + 1), x)) xs))
       Ilp.Lp.Le 6.);
  ignore
    (Ilp.Lp.add_constr lp ~name:"pick"
       [ (1., xs.(0)); (1., xs.(1)); (1., xs.(2)) ]
       Ilp.Lp.Le 1.);
  lp

let check_final_snapshot_exact ~jobs () =
  let m = M.create () in
  let options = { Bb.default_options with Bb.metrics = m; jobs } in
  let outcome, stats = Bb.solve ~options (sample_lp ()) in
  (match outcome with
   | Bb.Optimal _ -> ()
   | _ -> Alcotest.fail "sample solve not optimal");
  (* every writing domain has joined: the snapshot is exact *)
  let s = M.snapshot m in
  Alcotest.(check int) "nodes exact" stats.Bb.nodes
    (M.counter_value s M.C_nodes);
  Alcotest.(check int) "pivots exact" stats.Bb.pivots
    (M.counter_value s M.C_lp_pivots);
  Alcotest.(check int)
    "factorizations exact" stats.Bb.lp_stats.Ilp.Simplex.factorizations
    (M.counter_value s M.C_lu_factorizations);
  Alcotest.(check int)
    "flips exact" stats.Bb.lp_stats.Ilp.Simplex.bound_flips
    (M.counter_value s M.C_lp_bound_flips);
  Alcotest.(check int)
    "dual stalls exact" stats.Bb.lp_stats.Ilp.Simplex.dual_stalls
    (M.counter_value s M.C_lp_dual_stalls);
  Alcotest.(check int)
    "primal restarts exact" stats.Bb.lp_stats.Ilp.Simplex.primal_restarts
    (M.counter_value s M.C_lp_primal_restarts);
  Alcotest.(check int) "incumbents exact" stats.Bb.incumbents
    (M.counter_value s M.C_incumbents);
  let h = M.hist_value s M.H_factor_seconds in
  Alcotest.(check int)
    "factor hist counts factorizations"
    stats.Bb.lp_stats.Ilp.Simplex.factorizations h.M.h_count;
  (* the final gauges carry the converged bound/incumbent pair *)
  (match outcome with
   | Bb.Optimal { obj; _ } ->
     Alcotest.(check (float 1e-6)) "bound gauge" obj
       (M.gauge_value s M.G_best_bound);
     Alcotest.(check (float 1e-6)) "incumbent gauge" obj
       (M.gauge_value s M.G_incumbent_obj)
   | _ -> ());
  (stats, outcome)

let test_final_snapshot_sequential () =
  ignore (check_final_snapshot_exact ~jobs:1 ())

let test_final_snapshot_parallel () =
  ignore (check_final_snapshot_exact ~jobs:2 ())

(* ---------------- gap reconstruction ---------------- *)

let test_timelines_reconstruct_gap () =
  let m = M.create () in
  let options = { Bb.default_options with Bb.metrics = m } in
  let outcome, stats = Bb.solve ~options (sample_lp ()) in
  let obj =
    match outcome with
    | Bb.Optimal { obj; _ } -> obj
    | _ -> Alcotest.fail "sample solve not optimal"
  in
  Alcotest.(check bool)
    "bound timeline non-empty" true
    (Array.length stats.Bb.bound_timeline > 0);
  Alcotest.(check bool)
    "incumbent timeline non-empty" true
    (Array.length stats.Bb.timeline > 0);
  let _, final_bound =
    stats.Bb.bound_timeline.(Array.length stats.Bb.bound_timeline - 1)
  in
  let _, final_inc, _, _ =
    stats.Bb.timeline.(Array.length stats.Bb.timeline - 1)
  in
  (* last entries are authoritative: on Optimal both equal the optimum,
     so the reconstructed gap closes *)
  Alcotest.(check (float 1e-9)) "final bound is the optimum" obj final_bound;
  Alcotest.(check (float 1e-9)) "final incumbent is the optimum" obj
    final_inc;
  Array.iter
    (fun (t, b) ->
      Alcotest.(check bool) "timestamps non-negative" true (t >= 0.);
      Alcotest.(check bool) "bounds finite" true (Float.is_finite b);
      Alcotest.(check bool) "bounds never exceed the optimum" true
        (b <= obj +. 1e-9))
    stats.Bb.bound_timeline;
  (* strictly increasing bound sequence *)
  for i = 1 to Array.length stats.Bb.bound_timeline - 1 do
    let _, b0 = stats.Bb.bound_timeline.(i - 1)
    and _, b1 = stats.Bb.bound_timeline.(i) in
    Alcotest.(check bool) "bounds increase" true (b1 > b0)
  done

let () =
  Alcotest.run "metrics"
    [
      ( "registry",
        [
          Alcotest.test_case "disabled costs nothing" `Quick
            test_disabled_costs_nothing;
          Alcotest.test_case "counters, gauges, histograms" `Quick
            test_counters_and_hists;
          QCheck_alcotest.to_alcotest merge_property;
        ] );
      ( "codec",
        [
          QCheck_alcotest.to_alcotest jsonl_roundtrip_property;
          Alcotest.test_case "stream validator" `Quick test_validator;
          Alcotest.test_case "jsonl file round-trip" `Quick
            test_jsonl_file_roundtrip;
          Alcotest.test_case "prometheus round-trip" `Quick
            test_prometheus_roundtrip;
        ] );
      ( "solver",
        [
          Alcotest.test_case "final snapshot equals stats (sequential)"
            `Quick test_final_snapshot_sequential;
          Alcotest.test_case "final snapshot equals stats (jobs=2)" `Quick
            test_final_snapshot_parallel;
          Alcotest.test_case "timelines reconstruct the gap" `Quick
            test_timelines_reconstruct_gap;
        ] );
    ]
