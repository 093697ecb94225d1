(* Tests for the metrics registry and its exporters: private shards,
   the multi-domain shard merge (loss-free, monotone), the JSONL codec
   round-trip, the stream validator, the Prometheus text exposition,
   the acceptance pin that a final snapshot's totals equal the solver's
   own statistics exactly (sequential and jobs=2), that the statistics
   are one store's view whether or not the caller supplies a registry,
   plus gap reconstruction from the two --json timelines. *)

module M = Ilp.Metrics
module Export = Ilp.Metrics_export
module Json = Ilp.Json
module Bb = Ilp.Branch_bound

(* ---------------- registry semantics ---------------- *)

let test_private_shard () =
  (* a shard made without a registry counts, but no registry sees it *)
  let m = M.create () in
  let mine = M.make_shard () and theirs = M.make_shard ~registry:m () in
  M.incr mine M.C_nodes;
  M.add_sum mine M.S_hook_seconds 0.5;
  M.incr theirs M.C_nodes;
  M.incr theirs M.C_nodes;
  Alcotest.(check int) "own cell" 1 (M.count mine M.C_nodes);
  Alcotest.(check int) "registry sees its shard only" 2
    (M.counter_value (M.snapshot m) M.C_nodes);
  let s = M.merge [ mine; theirs ] in
  Alcotest.(check int) "merge sums cells" 3 (M.counter_value s M.C_nodes);
  Alcotest.(check (float 0.)) "merge sums sums" 0.5
    (M.sum_value s M.S_hook_seconds);
  Alcotest.(check bool)
    "merge leaves gauges unset" true
    (Float.is_nan (M.gauge_value s M.G_best_bound));
  (* names live in one table: every name decodes to its instrument *)
  Array.iteri
    (fun i c ->
      Alcotest.(check int) "index is position" i (M.counter_index c);
      Alcotest.(check bool) "name round-trips" true
        (M.counter_of_name (M.counter_name c) = Some c))
    M.all_counters

let test_counters_and_hists () =
  let m = M.create () in
  let sh = M.make_shard ~registry:m () in
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
        let sh = M.make_shard ~registry:m () in
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
         let sh = M.make_shard ~registry:m () in
         let r = ref seed in
         let next bound =
           r := ((!r * 1103515245) + 12345) land 0x3FFFFFFF;
           !r mod bound
         in
         Array.iter (fun c -> M.add sh c (next 1000)) M.all_counters;
         Array.iter
           (fun x -> M.add_sum sh x (Float.of_int (next 100_000) /. 64.))
           M.all_sums;
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
  && a.M.s_sums = b.M.s_sums
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
  let sh = M.make_shard ~registry:m () in
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
  (* and so must a sum running backwards with every counter still *)
  (match
     Export.check
       [ s2; { s2 with M.s_sums = Array.map (fun v -> v -. 1.) s2.M.s_sums } ]
   with
   | Ok () -> Alcotest.fail "regressing sums accepted"
   | Error _ -> ());
  (* and monotonize repairs exactly that *)
  match Export.check [ s2; Export.monotonize s2 s1 ] with
  | Ok () -> ()
  | Error e -> Alcotest.failf "monotonized stream rejected: %s" e

let test_jsonl_file_roundtrip () =
  let m = M.create () in
  let sh = M.make_shard ~registry:m () in
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

(* Load errors name the physical line: a blank line before a malformed
   snapshot still counts. *)
let test_load_error_line () =
  let path = Filename.temp_file "metrics" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Export.write_jsonl oc M.empty_snapshot;
      output_string oc "\n{\"ts\": 1, \"counters\": {\"nodes\": 1.5}}\n";
      close_out oc;
      match Export.load path with
      | Ok _ -> Alcotest.fail "malformed snapshot accepted"
      | Error e ->
        Alcotest.(check string) "error" "line 3: counters \"nodes\": expected an integer" e)

(* ---------------- Prometheus ---------------- *)

(* The exposition is a write-only export, so its text is pinned line by
   line for a hand-built snapshot: each family is a HELP line, a TYPE
   line and its samples; an unset gauge prints nothing. *)
let test_prometheus_exposition () =
  let m = M.create () in
  let sh = M.make_shard ~registry:m () in
  M.add sh M.C_nodes 17;
  M.add_sum sh M.S_cert_seconds 0.25;
  M.add sh M.C_lp_pivots 123;
  M.observe sh M.H_factor_seconds 3e-5;
  M.observe sh M.H_factor_seconds 0.5;
  M.set_gauge m M.G_best_bound 2.25;
  let lines = String.split_on_char '\n' (Export.prometheus (M.snapshot m)) in
  (* the [n] lines starting at [first] *)
  let block first n =
    let rec from = function
      | l :: rest when l = first -> l :: rest
      | _ :: rest -> from rest
      | [] -> Alcotest.failf "no line %S" first
    in
    List.filteri (fun i _ -> i < n) (from lines)
  in
  let family first expected =
    Alcotest.(check (list string)) first expected
      (block first (List.length expected))
  in
  family "# HELP tpart_nodes_total Solver counter nodes."
    [
      "# HELP tpart_nodes_total Solver counter nodes.";
      "# TYPE tpart_nodes_total counter";
      "tpart_nodes_total 17";
    ];
  family "# HELP tpart_lp_pivots_total Solver counter lp_pivots."
    [
      "# HELP tpart_lp_pivots_total Solver counter lp_pivots.";
      "# TYPE tpart_lp_pivots_total counter";
      "tpart_lp_pivots_total 123";
    ];
  family "# HELP tpart_incumbents_total Solver counter incumbents."
    [
      "# HELP tpart_incumbents_total Solver counter incumbents.";
      "# TYPE tpart_incumbents_total counter";
      "tpart_incumbents_total 0";
    ];
  family "# HELP tpart_cert_seconds_total Solver sum cert_seconds."
    [
      "# HELP tpart_cert_seconds_total Solver sum cert_seconds.";
      "# TYPE tpart_cert_seconds_total counter";
      "tpart_cert_seconds_total 0.25";
    ];
  family "# HELP tpart_best_bound Solver gauge best_bound."
    [
      "# HELP tpart_best_bound Solver gauge best_bound.";
      "# TYPE tpart_best_bound gauge";
      "tpart_best_bound 2.25";
    ];
  Alcotest.(check bool)
    "unset gauge omitted" false
    (List.exists
       (fun l -> String.length l >= 16 && String.sub l 0 16 = "tpart_pool_depth")
       lines);
  (* 3e-5 s lands in bucket 5 (le 32 us), 0.5 s in bucket 19 (le
     0.524288 s); buckets are cumulative *)
  family "# HELP tpart_factor_seconds Solver histogram factor_seconds."
    ([
       "# HELP tpart_factor_seconds Solver histogram factor_seconds.";
       "# TYPE tpart_factor_seconds histogram";
     ]
    @ List.init M.n_buckets (fun i ->
          Printf.sprintf "tpart_factor_seconds_bucket{le=\"%s\"} %d"
            (if i = M.n_buckets - 1 then "+Inf"
             else Printf.sprintf "%.17g" (Float.ldexp 1e-6 i))
            (if i < 5 then 0 else if i < 19 then 1 else 2))
    @ [
        "tpart_factor_seconds_sum 0.50002999999999997";
        "tpart_factor_seconds_count 2";
      ]);
  family "tpart_factor_seconds_bucket{le=\"3.1999999999999999e-05\"} 1"
    [ "tpart_factor_seconds_bucket{le=\"3.1999999999999999e-05\"} 1" ];
  family "tpart_factor_seconds_bucket{le=\"0.52428799999999998\"} 2"
    [ "tpart_factor_seconds_bucket{le=\"0.52428799999999998\"} 2" ]

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

(* A knapsack with a few side rows: a tree of about a hundred nodes that
   keeps both deterministic workers busy past the seeding phase. The
   values are halved, so not all of them are integers and the search
   prunes with its fine cutoff, not the whole-unit one that would
   shrink the tree. *)
let knapsack_lp () =
  let lp = Ilp.Lp.create () in
  let n = 30 in
  let xs = Array.init n (fun _ -> Ilp.Lp.add_var lp Ilp.Lp.Binary) in
  let w i = Float.of_int (3 + ((i * 7) mod 11)) in
  Ilp.Lp.set_objective lp ~maximize:true
    (Array.to_list
       (Array.mapi
          (fun i x -> ((w i +. Float.of_int ((i * 5) mod 4)) /. 2., x))
          xs));
  ignore
    (Ilp.Lp.add_constr lp
       (Array.to_list (Array.mapi (fun i x -> (w i, x)) xs))
       Ilp.Lp.Le 67.);
  for k = 0 to 3 do
    ignore
      (Ilp.Lp.add_constr lp
         [ (1., xs.(k)); (1., xs.(k + 4)); (1., xs.(k + 8)) ]
         Ilp.Lp.Le 1.)
  done;
  lp

let check_final_snapshot_exact ~lp ~jobs () =
  let m = M.create () in
  let options = { Bb.default_options with Bb.metrics = Some m; jobs } in
  let outcome, stats = Bb.solve ~options lp in
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
  Alcotest.(check int)
    "cold primal exact" stats.Bb.lp_stats.Ilp.Simplex.cold_primal
    (M.counter_value s M.C_lp_cold_primal);
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

(* Every integer statistic of a solve, by name — except the incumbent
   counts: under [deterministic] each worker prunes on its own bound,
   but which worker's find improves the shared incumbent first is
   timing. *)
let int_stats (s : Bb.stats) =
  [
    ("nodes", s.Bb.nodes); ("pivots", s.Bb.pivots); ("max_depth", s.Bb.max_depth);
    ("fill", s.Bb.lp_stats.Ilp.Simplex.fill);
  ]
  @ List.filter_map
      (fun c ->
        (* hungry polls time the workers' waits *)
        if c = M.C_incumbents || c = M.C_pool_hungry_polls then None
        else Some (M.counter_name c, M.counter_value s.Bb.metrics c))
      (Array.to_list M.all_counters)
  @ List.concat
      (List.mapi
         (fun i w ->
           let k name = Printf.sprintf "worker %d %s" i name in
           let c = M.counter_value w in
           [
             (k "nodes", c M.C_nodes); (k "steals", c M.C_pool_steals);
             (k "handoffs", c M.C_pool_handoffs); (k "pivots", c M.C_lp_pivots);
           ])
         (Array.to_list s.Bb.workers))
  @ List.concat_map
      (fun (r : M.node_lp_row) ->
        let k name = Printf.sprintf "node-lps %s %s" r.M.nl_reason name in
        [
          (k "nodes", r.M.nl_nodes); (k "pivots", r.M.nl_pivots);
          (k "p50", r.M.nl_p50); (k "p90", r.M.nl_p90); (k "max", r.M.nl_max);
        ])
      (Array.to_list s.Bb.node_lps)

(* The statistics are one store's view: a solve counting into the
   caller's registry and one counting into a private registry return
   identical integer statistics, sequentially and on two deterministic
   workers, the caller's registry holds one shard per search context,
   and its final snapshot carries the same tallies. *)
let test_one_store ~jobs () =
  let options =
    {
      Bb.default_options with
      Bb.jobs;
      deterministic = true;
      certify_level = Bb.Cert_all;
      node_hook =
        Some
          (fun point ~is_fixed:_ ->
            (* undecided whenever the first item is fractional *)
            match point with
            | Bb.Lp_solution x when Bb.fractionality x.(0) > 1e-6 ->
              Bb.Hook_gave_up "x0 fractional"
            | Bb.Lp_solution _ | Bb.Bounds _ -> Bb.Hook_none);
    }
  in
  let m = M.create () in
  let _, live = Bb.solve ~options:{ options with Bb.metrics = Some m } (knapsack_lp ()) in
  let _, priv = Bb.solve ~options (knapsack_lp ()) in
  Alcotest.(check (list (pair string int)))
    "same integer stats" (int_stats priv) (int_stats live);
  Alcotest.(check bool) "a real tree" true (live.Bb.nodes > 50);
  if jobs > 1 then
    Alcotest.(check bool)
      "every worker ran" true
      (Array.for_all (fun w -> M.counter_value w M.C_nodes > 0) live.Bb.workers);
  (* the search contexts — the driver, plus one per worker at jobs > 1
     — each register one shard, which their engines count into *)
  Alcotest.(check int)
    "one shard per search context"
    (if jobs = 1 then 1 else 1 + jobs)
    (M.shard_count m);
  let s = M.snapshot m in
  Array.iter
    (fun counter ->
      Alcotest.(check int) (M.counter_name counter)
        (M.counter_value live.Bb.metrics counter)
        (M.counter_value s counter))
    M.all_counters;
  Alcotest.(check bool) "give-ups seen" true
    (M.counter_value live.Bb.metrics M.C_hook_give_ups > 0);
  (* the node-LP table partitions the nodes and the pivots *)
  match Array.to_list live.Bb.node_lps with
  | all :: reasons ->
    Alcotest.(check string) "all row first" "all" all.M.nl_reason;
    Alcotest.(check int) "all nodes" live.Bb.nodes all.M.nl_nodes;
    Alcotest.(check int) "all pivots" live.Bb.pivots all.M.nl_pivots;
    Alcotest.(check int) "reasons partition nodes" all.M.nl_nodes
      (List.fold_left (fun a r -> a + r.M.nl_nodes) 0 reasons);
    Alcotest.(check int) "reasons partition pivots" all.M.nl_pivots
      (List.fold_left (fun a r -> a + r.M.nl_pivots) 0 reasons)
  | [] -> Alcotest.fail "no node-LP rows"

let test_final_snapshot_sequential () =
  ignore (check_final_snapshot_exact ~lp:(sample_lp ()) ~jobs:1 ())

(* The knapsack's tree outlasts the seeding phase, so the workers'
   shards carry work (the sample tree ends while seeding). *)
let test_final_snapshot_parallel () =
  ignore (check_final_snapshot_exact ~lp:(knapsack_lp ()) ~jobs:2 ())

(* ---------------- gap reconstruction ---------------- *)

let test_timelines_reconstruct_gap () =
  let m = M.create () in
  let options = { Bb.default_options with Bb.metrics = Some m } in
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

(* ---------------- the counter report ---------------- *)

(* A snapshot in which every counter, sum and histogram cell holds its
   own value: counters from 101, sums from 201, histogram counts, sums
   and maxima from 301, 401 and 501, and the LU fill 777. *)
let distinct_snapshot () =
  let e = M.empty_snapshot in
  let gauges = Array.copy e.M.s_gauges in
  gauges.(M.gauge_index M.G_lu_fill) <- 777.;
  {
    e with
    M.s_counters = Array.init (Array.length M.all_counters) (fun i -> 101 + i);
    s_sums = Array.init (Array.length M.all_sums) (fun i -> float_of_int (201 + i));
    s_gauges = gauges;
    s_hists =
      Array.init (Array.length M.all_histograms) (fun h ->
          let buckets = Array.make M.n_buckets 0 in
          buckets.(0) <- 301 + h;
          {
            M.h_count = 301 + h;
            h_sum = float_of_int (401 + h);
            h_max = float_of_int (501 + h);
            h_buckets = buckets;
          });
  }

(* The values of the instruments, one entry per rendered cell. *)
let values s instruments =
  List.concat_map
    (function
      | Export.Counter c -> [ float_of_int (M.counter_value s c) ]
      | Export.Sum x -> [ M.sum_value s x ]
      | Export.Gauge g -> [ M.gauge_value s g ]
      | Export.Histogram h ->
        let v = M.hist_value s h in
        [ float_of_int v.M.h_count; v.M.h_sum; v.M.h_max ])
    instruments
  |> List.sort Float.compare

(* Every number the text prints (a run of digits and dots), in order
   of size. *)
let numbers text =
  let acc = ref [] and b = Buffer.create 16 in
  let flush () =
    if Buffer.length b > 0 then begin
      acc := float_of_string (Buffer.contents b) :: !acc;
      Buffer.clear b
    end
  in
  String.iter
    (fun ch ->
      match ch with
      | '0' .. '9' | '.' -> Buffer.add_char b ch
      | _ -> flush ())
    text;
  flush ();
  List.sort Float.compare !acc

let every_instrument =
  List.map (fun c -> Export.Counter c) (Array.to_list M.all_counters)
  @ List.map (fun x -> Export.Sum x) (Array.to_list M.all_sums)
  @ [ Export.Gauge M.G_lu_fill ]
  @ List.map (fun h -> Export.Histogram h) (Array.to_list M.all_histograms)

(* The text report prints every counter, sum and histogram cell of a
   snapshot (and the LU fill) exactly once, and nothing else; limited
   to the instruments a trace replays, it prints exactly theirs. *)
let test_report_covers_each_once () =
  let s = distinct_snapshot () in
  let render ?only () =
    Format.asprintf "%a" (fun ppf -> Export.pp_report ?only ppf) s
  in
  Alcotest.(check (list (float 0.)))
    "every value once" (values s every_instrument) (numbers (render ()));
  let replayed = Ilp.Trace_export.Summary.replayed in
  Alcotest.(check (list (float 0.)))
    "replayed values once" (values s replayed)
    (numbers (render ~only:replayed ()))

(* A certified solve prints its certification line even when no check
   ran (a time limit hit before the root LP); any other report prints it
   only when a check ran. *)
let test_report_certification_line () =
  let render ?certified s =
    Format.asprintf "%a"
      (fun ppf -> Export.pp_report ~only:Export.certification ?certified ppf)
      s
  in
  let line = "certification: checked=0 certified=0 refuted=0 uncertifiable=0 time=0.000s\n" in
  Alcotest.(check string) "certified, no check" line (render ~certified:None M.empty_snapshot);
  Alcotest.(check string) "not certified" "" (render M.empty_snapshot);
  let s = distinct_snapshot () in
  Alcotest.(check bool) "a check ran" true
    (String.starts_with ~prefix:"certification: checked=" (render s))

(* The JSON report names every counter, sum and histogram once, with
   its value. *)
let test_report_json_names_each_once () =
  let s = distinct_snapshot () in
  let members = Export.cells_to_json s in
  let keys member =
    match List.assoc_opt member members with
    | Some (Json.Obj kvs) -> List.map fst kvs
    | _ -> Alcotest.failf "no %s object" member
  in
  let names f all = List.map f (Array.to_list all) in
  Alcotest.(check (list string))
    "counters" (names M.counter_name M.all_counters) (keys "counters");
  Alcotest.(check (list string)) "sums" (names M.sum_name M.all_sums) (keys "sums");
  Alcotest.(check (list string))
    "hists" (names M.histogram_name M.all_histograms) (keys "hists");
  match Export.snapshot_of_json (Json.Obj (("ts", Json.Num 0.) :: members)) with
  | Ok back ->
    Alcotest.(check (list (float 0.)))
      "values decode" (values s every_instrument)
      (values { back with M.s_gauges = s.M.s_gauges } every_instrument)
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "metrics"
    [
      ( "registry",
        [
          Alcotest.test_case "private shard stays out of registries" `Quick
            test_private_shard;
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
          Alcotest.test_case "load errors name the physical line" `Quick
            test_load_error_line;
          Alcotest.test_case "prometheus exposition" `Quick
            test_prometheus_exposition;
        ] );
      ( "solver",
        [
          Alcotest.test_case "final snapshot equals stats (sequential)"
            `Quick test_final_snapshot_sequential;
          Alcotest.test_case "final snapshot equals stats (jobs=2)" `Quick
            test_final_snapshot_parallel;
          Alcotest.test_case "stats are one store's view (sequential)" `Quick
            (test_one_store ~jobs:1);
          Alcotest.test_case "stats are one store's view (jobs=2)" `Quick
            (test_one_store ~jobs:2);
          Alcotest.test_case "timelines reconstruct the gap" `Quick
            test_timelines_reconstruct_gap;
        ] );
      ( "report",
        [
          Alcotest.test_case "text prints each value once" `Quick
            test_report_covers_each_once;
          Alcotest.test_case "certification line" `Quick
            test_report_certification_line;
          Alcotest.test_case "json names each instrument once" `Quick
            test_report_json_names_each_once;
        ] );
    ]
