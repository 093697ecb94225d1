(* Tests for the structured tracing layer: ring-buffer semantics, the
   multi-domain merge (loss-free, per-writer monotone), the JSONL
   writer (parses back to the same records), the Chrome trace_event
   export (one well-formed event per record), the stream checker, the
   tree reconstruction, and the summary's exactness against the
   solver's own statistics. *)

module Trace = Ilp.Trace
module Export = Ilp.Trace_export
module Json = Ilp.Json
module Bb = Ilp.Branch_bound

(* ---------------- buffers and merge ---------------- *)

let test_disabled_costs_nothing () =
  Alcotest.(check bool) "disabled" false (Trace.enabled Trace.disabled);
  Alcotest.(check bool) "null inactive" false (Trace.active Trace.null_writer);
  Alcotest.(check bool)
    "main of disabled inactive" false
    (Trace.active (Trace.main Trace.disabled));
  (* emitting to the null writer is a no-op, not an error *)
  Trace.emit Trace.null_writer (Trace.Span_begin "x");
  Alcotest.(check int) "no records" 0
    (Array.length (Trace.collect Trace.disabled))

let test_emit_collect_order () =
  let t = Trace.create () in
  let w = Trace.main t in
  Alcotest.(check bool) "active" true (Trace.active w);
  for i = 0 to 99 do
    Trace.emit w (Trace.Incumbent { node = i; obj = Float.of_int i; source = Trace.Src_search })
  done;
  let r = Trace.collect t in
  Alcotest.(check int) "all collected" 100 (Array.length r);
  Array.iteri
    (fun i (rec_ : Trace.record) ->
      Alcotest.(check int) "dense seq" i rec_.Trace.seq;
      Alcotest.(check string) "writer name" "main" rec_.Trace.dname)
    r;
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped t)

let test_ring_overwrites_oldest () =
  (* capacity rounds up to a power of two (16 is the floor) *)
  let t = Trace.create ~capacity:16 () in
  let w = Trace.main t in
  for i = 0 to 99 do
    Trace.emit w (Trace.Incumbent { node = i; obj = 0.; source = Trace.Src_search })
  done;
  let r = Trace.collect t in
  Alcotest.(check int) "capacity retained" 16 (Array.length r);
  Alcotest.(check int) "overwritten counted" 84 (Trace.dropped t);
  (* the survivors are the newest events, in order *)
  Array.iteri
    (fun i (rec_ : Trace.record) ->
      match rec_.Trace.ev with
      | Trace.Incumbent { node; _ } ->
        Alcotest.(check int) "newest retained" (84 + i) node
      | _ -> Alcotest.fail "unexpected event")
    r

(* QCheck property (the issue's merge contract): spawn several domains,
   each emitting its own event stream into its own writer; the merged
   collection must be loss-free (every emitted event present exactly
   once) and per-domain monotone in timestamp and sequence number. *)
let merge_property =
  QCheck.Test.make ~count:20 ~name:"multi-domain merge loss-free and monotone"
    QCheck.(pair (int_range 1 4) (int_range 1 300))
    (fun (ndoms, nevents) ->
      let t = Trace.create () in
      let worker d () =
        let w = Trace.make_writer t (Printf.sprintf "w%d" d) in
        for i = 0 to nevents - 1 do
          Trace.emit w (Trace.Incumbent { node = (d * 1_000_000) + i; obj = 0.; source = Trace.Src_search })
        done
      in
      let doms = Array.init ndoms (fun d -> Domain.spawn (worker d)) in
      Array.iter Domain.join doms;
      let r = Trace.collect t in
      (* loss-free: every (domain, i) payload appears exactly once *)
      let seen = Hashtbl.create 97 in
      Array.iter
        (fun (rec_ : Trace.record) ->
          match rec_.Trace.ev with
          | Trace.Incumbent { node; _ } ->
            if Hashtbl.mem seen node then
              QCheck.Test.fail_reportf "duplicate event %d" node;
            Hashtbl.add seen node ()
          | _ -> QCheck.Test.fail_report "unexpected event")
        r;
      if Array.length r <> ndoms * nevents then
        QCheck.Test.fail_reportf "lost events: %d <> %d" (Array.length r)
          (ndoms * nevents);
      (* per-domain monotone: ts non-decreasing, seq strictly increasing
         (collect sorts globally; project each domain's subsequence) *)
      let last_ts = Hashtbl.create 7 and last_seq = Hashtbl.create 7 in
      Array.iter
        (fun (rec_ : Trace.record) ->
          (match Hashtbl.find_opt last_ts rec_.Trace.dom with
           | Some ts when rec_.Trace.ts < ts ->
             QCheck.Test.fail_reportf "ts regressed on dom %d" rec_.Trace.dom
           | _ -> ());
          (match Hashtbl.find_opt last_seq rec_.Trace.dom with
           | Some sq when rec_.Trace.seq <> sq + 1 ->
             QCheck.Test.fail_reportf "seq not dense on dom %d" rec_.Trace.dom
           | _ -> ());
          Hashtbl.replace last_ts rec_.Trace.dom rec_.Trace.ts;
          Hashtbl.replace last_seq rec_.Trace.dom rec_.Trace.seq)
        r;
      (* and the checker agrees *)
      (match Export.check r with
       | [] -> ()
       | p :: _ -> QCheck.Test.fail_reportf "checker: %s" p);
      true)

(* ---------------- a real traced solve to round-trip ---------------- *)

(* A small knapsack-flavoured 0-1 model with a nontrivial tree. *)
let sample_records () =
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
  let tracer = Trace.create () in
  let options = { Bb.default_options with Bb.tracer } in
  let outcome, stats = Bb.solve ~options lp in
  (match outcome with
   | Bb.Optimal _ -> ()
   | _ -> Alcotest.fail "sample solve not optimal");
  (Trace.collect tracer, stats)

let test_solver_trace_consistent () =
  let records, stats = sample_records () in
  Alcotest.(check (list string)) "stream clean" [] (Export.check records);
  let s = Export.Summary.of_records records in
  Alcotest.(check int) "nodes match stats" stats.Bb.nodes
    s.Export.Summary.nodes_opened;
  Alcotest.(check int) "all closed" s.Export.Summary.nodes_opened
    s.Export.Summary.nodes_closed;
  Alcotest.(check int) "pivots match stats" stats.Bb.pivots
    s.Export.Summary.lp_pivots;
  Alcotest.(check int) "incumbent count" stats.Bb.incumbents
    (List.length s.Export.Summary.incumbents);
  Alcotest.(check int) "timeline in stats too" stats.Bb.incumbents
    (Array.length stats.Bb.timeline)

let test_tree_reconstruction () =
  let records, stats = sample_records () in
  let nodes = Export.Tree.of_records records in
  Alcotest.(check int) "every node in tree" stats.Bb.nodes
    (List.length nodes);
  List.iter
    (fun (nd : Export.Tree.node) ->
      if nd.Export.Tree.id <> 1 then begin
        Alcotest.(check bool)
          (Printf.sprintf "node %d has a known parent" nd.Export.Tree.id)
          true
          (List.exists
             (fun (p : Export.Tree.node) ->
               p.Export.Tree.id = nd.Export.Tree.parent)
             nodes)
      end
      else
        Alcotest.(check int) "root parent is -1" (-1) nd.Export.Tree.parent;
      Alcotest.(check bool)
        (Printf.sprintf "node %d closed" nd.Export.Tree.id)
        false
        (nd.Export.Tree.reason = ""))
    nodes;
  (* DOT output mentions every node *)
  let dot = Export.Tree.to_dot nodes in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun (nd : Export.Tree.node) ->
      let label = Printf.sprintf "n%d " nd.Export.Tree.id in
      Alcotest.(check bool) label true (contains dot label))
    nodes

(* ---------------- writers ---------------- *)

let with_temp_file f =
  let path = Filename.temp_file "trace_test" ".out" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let write_with write records path =
  let oc = open_out path in
  write oc records;
  close_out oc

let read_all path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let check_roundtrip records (loaded : Trace.record array) =
  Alcotest.(check int) "record count" (Array.length records)
    (Array.length loaded);
  Array.iteri
    (fun i (orig : Trace.record) ->
      let got = loaded.(i) in
      Alcotest.(check int) "dom" orig.Trace.dom got.Trace.dom;
      Alcotest.(check string) "writer" orig.Trace.dname got.Trace.dname;
      Alcotest.(check int) "seq" orig.Trace.seq got.Trace.seq;
      Alcotest.(check string)
        (Printf.sprintf "event %d" i)
        (Format.asprintf "%a" Trace.pp_event orig.Trace.ev)
        (Format.asprintf "%a" Trace.pp_event got.Trace.ev))
    records

let test_jsonl_roundtrip () =
  let records, _ = sample_records () in
  with_temp_file (fun path ->
      write_with Export.write_jsonl records path;
      match Export.load path with
      | Error m -> Alcotest.fail m
      | Ok loaded -> check_roundtrip records loaded)

let jstr k e = Option.bind (Json.member k e) Json.str
let jint k e = Option.bind (Json.member k e) Json.int

(* The Chrome document written for [records]: its non-metadata events
   and its tid -> thread name map. *)
let chrome_of records =
  with_temp_file (fun path ->
      write_with Export.write_chrome records path;
      match Json.parse (read_all path) with
      | Error m -> Alcotest.fail ("chrome export is not JSON: " ^ m)
      | Ok json ->
        let events =
          match Json.member "traceEvents" json with
          | Some evs -> Json.to_list evs
          | None -> Alcotest.fail "no traceEvents member"
        in
        let meta, evs = List.partition (fun e -> jstr "ph" e = Some "M") events in
        let threads =
          List.filter_map
            (fun e ->
              match (jstr "name" e, jint "tid" e) with
              | Some "thread_name", Some tid ->
                Option.map
                  (fun n -> (tid, n))
                  (Option.bind (Json.member "args" e) (jstr "name"))
              | _ -> None)
            meta
        in
        (evs, threads))

(* One Chrome event per record, in record order: its track is the
   record's writer, [args.seq] its sequence number, and its name and
   phase follow from the event type. *)
let test_chrome_export () =
  let records, _ = sample_records () in
  let evs, threads = chrome_of records in
  Alcotest.(check int) "one event per record" (Array.length records)
    (List.length evs);
  List.iteri
    (fun i e ->
      let r = records.(i) in
      let name, ph =
        match r.Trace.ev with
        | Trace.Node_open _ -> ("node", "B")
        | Trace.Node_close _ -> ("node", "E")
        | Trace.Lp_solve _ -> ("lp_solve", "X")
        | Trace.Lu_factor _ -> ("lu_factor", "X")
        | Trace.Lu_refactor _ -> ("lu_refactor", "i")
        | Trace.Prop_run _ -> ("prop_run", "i")
        | Trace.Incumbent _ -> ("incumbent", "i")
        | Trace.Cert_check _ -> ("cert_check", "X")
        | Trace.Span_begin n -> (n, "B")
        | Trace.Span_end n -> (n, "E")
      in
      let what = Printf.sprintf "event %d" i in
      Alcotest.(check (option string)) (what ^ " name") (Some name) (jstr "name" e);
      Alcotest.(check (option string)) (what ^ " ph") (Some ph) (jstr "ph" e);
      Alcotest.(check (option int)) (what ^ " tid") (Some r.Trace.dom) (jint "tid" e);
      Alcotest.(check (option int))
        (what ^ " seq") (Some r.Trace.seq)
        (Option.bind (Json.member "args" e) (jint "seq")))
    evs;
  Alcotest.(check (list (pair int string)))
    "thread names" [ (0, "main") ] threads

(* The Lu_factor payload grew [m] and [probes] fields; round-trip them
   explicitly through the JSONL codec (the solve-based round-trip above
   only compares pretty-printed events), make sure the checker is happy
   with a factorization-only stream, and check the Chrome export keeps
   them in [args] with [dt] as the duration in microseconds. *)
let test_lu_factor_roundtrip () =
  let record seq ts ev = { Trace.dom = 0; dname = "main"; seq; ts; ev } in
  let records =
    [|
      record 0 1e-3
        (Trace.Lu_factor { m = 37; fill = 245; probes = 112; dt = 3.25e-7 });
      record 1 2e-3 (Trace.Lu_factor { m = 1; fill = 1; probes = 0; dt = 0. });
    |]
  in
  with_temp_file (fun path ->
      write_with Export.write_jsonl records path;
      match Export.load path with
      | Error m -> Alcotest.fail m
      | Ok loaded ->
        Alcotest.(check (list string)) "stream clean" [] (Export.check loaded);
        check_roundtrip records loaded;
        (match loaded.(0).Trace.ev with
         | Trace.Lu_factor { m; fill; probes; dt } ->
           Alcotest.(check int) "m" 37 m;
           Alcotest.(check int) "fill" 245 fill;
           Alcotest.(check int) "probes" 112 probes;
           Alcotest.(check bool) "dt" true (Float.abs (dt -. 3.25e-7) < 1e-9)
         | _ -> Alcotest.fail "not an Lu_factor event"));
  match chrome_of records with
  | e :: _, _ ->
    let args = Option.get (Json.member "args" e) in
    Alcotest.(check (option int)) "chrome m" (Some 37) (jint "m" args);
    Alcotest.(check (option int)) "chrome fill" (Some 245) (jint "fill" args);
    Alcotest.(check (option int)) "chrome probes" (Some 112) (jint "probes" args);
    let num k = Option.get (Option.bind (Json.member k e) Json.num) in
    Alcotest.(check (float 1e-9)) "chrome dur" 0.325 (num "dur");
    Alcotest.(check (float 1e-9)) "chrome start" (1e3 -. 0.325) (num "ts")
  | [], _ -> Alcotest.fail "chrome export has no events"

let test_chrome_wellformed () =
  let records, _ = sample_records () in
  with_temp_file (fun path ->
      write_with Export.write_chrome records path;
      match Json.parse (read_all path) with
      | Error m -> Alcotest.fail ("chrome sink emitted invalid JSON: " ^ m)
      | Ok json ->
        let events =
          match Json.member "traceEvents" json with
          | Some evs -> Json.to_list evs
          | None -> Alcotest.fail "no traceEvents member"
        in
        Alcotest.(check bool) "has events" true (List.length events > 0);
        let get name ev = Option.bind (Json.member name ev) Json.num in
        List.iter
          (fun ev ->
            let ph =
              match Option.bind (Json.member "ph" ev) Json.str with
              | Some ph -> ph
              | None -> Alcotest.fail "event without ph"
            in
            Alcotest.(check bool) "known phase" true
              (List.mem ph [ "B"; "E"; "X"; "i"; "M" ]);
            if ph <> "M" then begin
              Alcotest.(check bool) "has ts" true (get "ts" ev <> None);
              Alcotest.(check bool) "has tid" true (get "tid" ev <> None)
            end)
          events)

let test_checker_flags_violations () =
  let records, _ = sample_records () in
  (* duplicate a node open: the checker must object *)
  let bad =
    Array.append records
      [|
        {
          Trace.dom = 0;
          dname = "main";
          seq = 1_000_000;
          ts = 1e9;
          ev = Trace.Node_open { id = 1; parent = -1; depth = 0; bound = 0. };
        };
      |]
  in
  Alcotest.(check bool) "violation found" true (Export.check bad <> [])

(* ---------------- parallel solver trace ---------------- *)

let test_parallel_trace_tracks () =
  let lp = Ilp.Lp.create () in
  let n = 12 in
  let xs =
    Array.init n (fun i ->
        Ilp.Lp.add_var lp ~name:(Printf.sprintf "x%d" i) Ilp.Lp.Binary)
  in
  Ilp.Lp.set_objective lp ~maximize:true
    (Array.to_list
       (Array.mapi (fun i x -> (Float.of_int ((i mod 5) + 1), x)) xs));
  ignore
    (Ilp.Lp.add_constr lp ~name:"cap"
       (Array.to_list
          (Array.mapi (fun i x -> (Float.of_int ((i mod 4) + 1), x)) xs))
       Ilp.Lp.Le 9.);
  let tracer = Trace.create () in
  let options = { Bb.default_options with Bb.tracer; jobs = 2 } in
  let outcome, stats = Bb.solve ~options lp in
  (match outcome with
   | Bb.Optimal _ -> ()
   | _ -> Alcotest.fail "parallel sample not optimal");
  let records = Trace.collect tracer in
  Alcotest.(check (list string)) "stream clean" [] (Export.check records);
  let s = Export.Summary.of_records records in
  Alcotest.(check int) "nodes exact under domains" stats.Bb.nodes
    s.Export.Summary.nodes_opened;
  Alcotest.(check int) "pivots exact under domains" stats.Bb.pivots
    s.Export.Summary.lp_pivots

(* The trace summary's node-LP table is the [--stats] table rebuilt
   from the event stream; only the LP-time column differs (the trace
   times the simplex entry points, the search times the node's LP
   phase). *)
let test_parallel_node_lp_table () =
  (* a three-row knapsack with pseudo-random weights: a tree of about
     1,500 nodes, most of them on the two workers' writers *)
  let lp = Ilp.Lp.create () in
  let n = 24 in
  let xs =
    Array.init n (fun i ->
        Ilp.Lp.add_var lp ~name:(Printf.sprintf "x%d" i) Ilp.Lp.Binary)
  in
  let coef k i = Float.of_int ((((i + 3) * (7 + k) * 37) mod 19) + 1) in
  Ilp.Lp.set_objective lp ~maximize:true
    (Array.to_list (Array.mapi (fun i x -> (coef 0 i, x)) xs));
  for k = 1 to 3 do
    ignore
      (Ilp.Lp.add_constr lp ~name:(Printf.sprintf "cap%d" k)
         (Array.to_list (Array.mapi (fun i x -> (coef k i, x)) xs))
         Ilp.Lp.Le 61.5)
  done;
  let tracer = Trace.create () in
  let options =
    { Bb.default_options with Bb.tracer; jobs = 2; deterministic = true }
  in
  let _, stats = Bb.solve ~options lp in
  let s = Export.Summary.of_records (Trace.collect tracer) in
  let rows (t : Ilp.Metrics.node_lp_row array) =
    Array.to_list
      (Array.map
         (fun (r : Ilp.Metrics.node_lp_row) ->
           Printf.sprintf "%s %d %d %d %d %d" r.nl_reason r.nl_nodes
             r.nl_pivots r.nl_p50 r.nl_p90 r.nl_max)
         t)
  in
  Alcotest.(check bool) "a tree was searched" true (stats.Bb.nodes > 1);
  Alcotest.(check (list string)) "rows equal --stats" (rows stats.Bb.node_lps)
    (rows s.Export.Summary.node_lps)

let () =
  Alcotest.run "trace"
    [
      ( "buffers",
        [
          Alcotest.test_case "disabled costs nothing" `Quick
            test_disabled_costs_nothing;
          Alcotest.test_case "emit/collect order" `Quick
            test_emit_collect_order;
          Alcotest.test_case "ring overwrites oldest" `Quick
            test_ring_overwrites_oldest;
          QCheck_alcotest.to_alcotest merge_property;
        ] );
      ( "solver",
        [
          Alcotest.test_case "summary matches stats" `Quick
            test_solver_trace_consistent;
          Alcotest.test_case "tree reconstruction" `Quick
            test_tree_reconstruction;
          Alcotest.test_case "parallel tracks exact" `Quick
            test_parallel_trace_tracks;
          Alcotest.test_case "parallel node-LP table" `Quick
            test_parallel_node_lp_table;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "chrome export carries every record" `Quick
            test_chrome_export;
          Alcotest.test_case "lu_factor m/probes round-trip" `Quick
            test_lu_factor_roundtrip;
          Alcotest.test_case "chrome well-formed" `Quick
            test_chrome_wellformed;
          Alcotest.test_case "checker flags violations" `Quick
            test_checker_flags_violations;
        ] );
    ]
