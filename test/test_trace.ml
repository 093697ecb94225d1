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

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

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
        (Json.to_string (Export.record_to_json orig))
        (Json.to_string (Export.record_to_json got)))
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
        | Trace.Hook_give_up _ -> ("hook_give_up", "i")
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
  Alcotest.(check bool) "violation found" true (Export.check bad <> []);
  (* hand-built streams on one writer, numbered from [first] *)
  let stream ?(first = 0) evs =
    Array.of_list
      (List.mapi
         (fun i ev ->
           let seq = first + i in
           { Trace.dom = 0; dname = "main"; seq; ts = Float.of_int seq *. 1e-3; ev })
         evs)
  in
  let b n = Trace.Span_begin n and e n = Trace.Span_end n in
  let gap = stream [ b "a"; e "a"; b "b"; e "b" ] in
  gap.(2) <- { (gap.(2)) with seq = 3 };
  gap.(3) <- { (gap.(3)) with seq = 4 };
  Alcotest.(check (list string)) "sequence gap"
    [ "writer 0 (main): sequence gap, 3 after 1" ] (Export.check gap);
  Alcotest.(check (list string)) "crossed spans"
    [ "writer 0 (main): span \"a\" ended inside span \"b\"" ]
    (Export.check (stream [ b "a"; b "b"; e "a"; e "b" ]));
  Alcotest.(check (list string)) "end without begin"
    [ "writer 0 (main): span \"a\" ended but never began" ]
    (Export.check (stream [ e "a"; b "b"; e "b" ]));
  Alcotest.(check (list string)) "begin without end"
    [ "writer 0 (main): span \"a\" began but never ended" ]
    (Export.check (stream [ b "a"; b "b"; e "b" ]));
  (* a writer whose ring wrapped lost the begins of its outer spans:
     their ends are not violations, but a crossing still is *)
  Alcotest.(check (list string)) "wrapped stream"
    [] (Export.check (stream ~first:5 [ e "inner"; b "c"; e "c"; e "outer" ]));
  Alcotest.(check int) "wrapped crossing" 1
    (List.length (Export.check (stream ~first:5 [ b "c"; e "outer"; e "c" ])));
  let t = Trace.create ~capacity:16 () in
  let w = Trace.main t in
  Trace.emit w (b "outer");
  Trace.emit w (b "inner");
  for i = 0 to 29 do
    Trace.emit w (Trace.Incumbent { node = i; obj = 0.; source = Trace.Src_search })
  done;
  Trace.emit w (e "inner");
  Trace.emit w (e "outer");
  Alcotest.(check bool) "ring wrapped" true (Trace.dropped t > 0);
  Alcotest.(check (list string)) "wrapped ring passes" [] (Export.check (Trace.collect t))

(* ---------------- pinned encodings ---------------- *)

(* A fixed stream holding every event constructor and every enum value,
   nan objectives, an infinite bound and a branched close, on three
   writers. Its JSONL lines and its Chrome document are pinned byte for
   byte below. *)
let golden_records =
  let writer dom dname evs =
    List.mapi (fun seq (ts, ev) -> { Trace.dom; dname; seq; ts; ev }) evs
  in
  let main =
    [
      (0., Trace.Span_begin "search");
      (0.001, Trace.Node_open { id = 1; parent = -1; depth = 0; bound = Float.neg_infinity });
      (0.0015, Trace.Prop_run { steps = 40; fixings = 2; conflict = false });
      (0.002, Trace.Lu_factor { m = 5; fill = 17; probes = 9; dt = 1e-5 });
      ( 0.003,
        Trace.Lp_solve
          { kind = Trace.Lp_primal; pivots = 12; flips = 3; obj = 1.5;
            primal_res = 1e-12; dual_res = 0.; dt = 2.5e-4 } );
      (0.0031, Trace.Cert_check { node = 1; verdict = Trace.Cert_certified; kind = "exact_optimum"; dt = 3e-4 });
      (0.004, Trace.Node_close { id = 1; obj = 1.5; reason = Trace.Branched { var = 3; frac = 0.25 } });
      (0.005, Trace.Node_open { id = 2; parent = 1; depth = 1; bound = 1.5 });
      (0.0055, Trace.Lu_refactor { trigger = Trace.Rf_eta; etas = 64 });
      (0.0056, Trace.Lu_refactor { trigger = Trace.Rf_numeric; etas = 7 });
      (0.0057, Trace.Lu_refactor { trigger = Trace.Rf_residual; etas = 0 });
      ( 0.006,
        Trace.Lp_solve
          { kind = Trace.Lp_dual; pivots = 4; flips = 0; obj = Float.nan;
            primal_res = 0.; dual_res = 2e-9; dt = 1.25e-4 } );
      (0.0061, Trace.Cert_check { node = 2; verdict = Trace.Cert_refuted; kind = "farkas_proof"; dt = 0. });
      (0.007, Trace.Node_close { id = 2; obj = Float.nan; reason = Trace.Infeasible_node });
      (0.008, Trace.Node_open { id = 3; parent = 1; depth = 1; bound = 1.5 });
      (0.0085, Trace.Prop_run { steps = 3; fixings = 0; conflict = true });
      (0.009, Trace.Node_close { id = 3; obj = Float.nan; reason = Trace.Prop_pruned });
      (0.010, Trace.Node_open { id = 4; parent = 1; depth = 1; bound = 1.5 });
      (0.0105, Trace.Incumbent { node = 4; obj = 2.; source = Trace.Src_hook });
      (0.011, Trace.Node_close { id = 4; obj = Float.nan; reason = Trace.Hook_pruned });
      (0.012, Trace.Node_open { id = 5; parent = 1; depth = 1; bound = 1.5 });
      (0.0125, Trace.Incumbent { node = 5; obj = 1.75; source = Trace.Src_search });
      (0.013, Trace.Node_close { id = 5; obj = 1.75; reason = Trace.Integral });
      (0.014, Trace.Node_open { id = 6; parent = 1; depth = 1; bound = 1.5 });
      (0.015, Trace.Node_close { id = 6; obj = 1.8; reason = Trace.Bound_pruned });
      (0.016, Trace.Span_end "search");
    ]
  and worker =
    [
      (0.0051, Trace.Span_begin "worker");
      (0.0052, Trace.Node_open { id = 7; parent = 1; depth = 1; bound = 1.5 });
      (0.0053, Trace.Cert_check { node = 7; verdict = Trace.Cert_uncertifiable; kind = "none"; dt = 1e-6 });
      (0.0054, Trace.Node_close { id = 7; obj = -0.5; reason = Trace.Unbounded_node });
      (0.0058, Trace.Node_open { id = 8; parent = 1; depth = 1; bound = 1.5 });
      (0.0059, Trace.Node_close { id = 8; obj = 1.6; reason = Trace.Numeric });
      (0.0171, Trace.Span_end "worker");
    ]
  and hook =
    [
      (0.0172, Trace.Node_open { id = 9; parent = 1; depth = 1; bound = 1.5 });
      (0.0173, Trace.Hook_give_up { node = 9; what = "map 1,1,2 (budget 300000 backtracks)" });
      (0.0174, Trace.Node_close { id = 9; obj = 1.5; reason = Trace.Bound_pruned });
    ]
  in
  Array.of_list
    (writer 0 "main" main @ writer 1 "worker 0" worker @ writer 2 "worker 1" hook)

let golden_jsonl =
  [
    {|{"ts":0,"dom":0,"w":"main","seq":0,"type":"span_begin","name":"search"}|};
    {|{"ts":0.001,"dom":0,"w":"main","seq":1,"type":"node_open","id":1,"parent":-1,"depth":0,"bound":-1e999}|};
    {|{"ts":0.0015,"dom":0,"w":"main","seq":2,"type":"prop_run","steps":40,"fixings":2,"conflict":false}|};
    {|{"ts":0.002,"dom":0,"w":"main","seq":3,"type":"lu_factor","m":5,"fill":17,"probes":9,"dt":1e-05}|};
    {|{"ts":0.003,"dom":0,"w":"main","seq":4,"type":"lp_solve","kind":"primal","pivots":12,"flips":3,"obj":1.5,"primal_res":1e-12,"dual_res":0,"dt":0.00025}|};
    {|{"ts":0.0031,"dom":0,"w":"main","seq":5,"type":"cert_check","node":1,"verdict":"certified","kind":"exact_optimum","dt":0.0003}|};
    {|{"ts":0.004,"dom":0,"w":"main","seq":6,"type":"node_close","id":1,"obj":1.5,"reason":"branched","var":3,"frac":0.25}|};
    {|{"ts":0.005,"dom":0,"w":"main","seq":7,"type":"node_open","id":2,"parent":1,"depth":1,"bound":1.5}|};
    {|{"ts":0.0055,"dom":0,"w":"main","seq":8,"type":"lu_refactor","trigger":"eta","etas":64}|};
    {|{"ts":0.0056,"dom":0,"w":"main","seq":9,"type":"lu_refactor","trigger":"numeric","etas":7}|};
    {|{"ts":0.0057,"dom":0,"w":"main","seq":10,"type":"lu_refactor","trigger":"residual","etas":0}|};
    {|{"ts":0.006,"dom":0,"w":"main","seq":11,"type":"lp_solve","kind":"dual","pivots":4,"flips":0,"obj":null,"primal_res":0,"dual_res":2e-09,"dt":0.000125}|};
    {|{"ts":0.0061,"dom":0,"w":"main","seq":12,"type":"cert_check","node":2,"verdict":"refuted","kind":"farkas_proof","dt":0}|};
    {|{"ts":0.007,"dom":0,"w":"main","seq":13,"type":"node_close","id":2,"obj":null,"reason":"infeasible"}|};
    {|{"ts":0.008,"dom":0,"w":"main","seq":14,"type":"node_open","id":3,"parent":1,"depth":1,"bound":1.5}|};
    {|{"ts":0.0085,"dom":0,"w":"main","seq":15,"type":"prop_run","steps":3,"fixings":0,"conflict":true}|};
    {|{"ts":0.009,"dom":0,"w":"main","seq":16,"type":"node_close","id":3,"obj":null,"reason":"propagation"}|};
    {|{"ts":0.01,"dom":0,"w":"main","seq":17,"type":"node_open","id":4,"parent":1,"depth":1,"bound":1.5}|};
    {|{"ts":0.0105,"dom":0,"w":"main","seq":18,"type":"incumbent","node":4,"obj":2,"source":"hook"}|};
    {|{"ts":0.011,"dom":0,"w":"main","seq":19,"type":"node_close","id":4,"obj":null,"reason":"hook"}|};
    {|{"ts":0.012,"dom":0,"w":"main","seq":20,"type":"node_open","id":5,"parent":1,"depth":1,"bound":1.5}|};
    {|{"ts":0.0125,"dom":0,"w":"main","seq":21,"type":"incumbent","node":5,"obj":1.75,"source":"search"}|};
    {|{"ts":0.013,"dom":0,"w":"main","seq":22,"type":"node_close","id":5,"obj":1.75,"reason":"integral"}|};
    {|{"ts":0.014,"dom":0,"w":"main","seq":23,"type":"node_open","id":6,"parent":1,"depth":1,"bound":1.5}|};
    {|{"ts":0.015,"dom":0,"w":"main","seq":24,"type":"node_close","id":6,"obj":1.8,"reason":"bound"}|};
    {|{"ts":0.016,"dom":0,"w":"main","seq":25,"type":"span_end","name":"search"}|};
    {|{"ts":0.0051,"dom":1,"w":"worker 0","seq":0,"type":"span_begin","name":"worker"}|};
    {|{"ts":0.0052,"dom":1,"w":"worker 0","seq":1,"type":"node_open","id":7,"parent":1,"depth":1,"bound":1.5}|};
    {|{"ts":0.0053,"dom":1,"w":"worker 0","seq":2,"type":"cert_check","node":7,"verdict":"uncertifiable","kind":"none","dt":1e-06}|};
    {|{"ts":0.0054,"dom":1,"w":"worker 0","seq":3,"type":"node_close","id":7,"obj":-0.5,"reason":"unbounded"}|};
    {|{"ts":0.0058,"dom":1,"w":"worker 0","seq":4,"type":"node_open","id":8,"parent":1,"depth":1,"bound":1.5}|};
    {|{"ts":0.0059,"dom":1,"w":"worker 0","seq":5,"type":"node_close","id":8,"obj":1.6,"reason":"numeric"}|};
    {|{"ts":0.0171,"dom":1,"w":"worker 0","seq":6,"type":"span_end","name":"worker"}|};
    {|{"ts":0.0172,"dom":2,"w":"worker 1","seq":0,"type":"node_open","id":9,"parent":1,"depth":1,"bound":1.5}|};
    {|{"ts":0.0173,"dom":2,"w":"worker 1","seq":1,"type":"hook_give_up","node":9,"what":"map 1,1,2 (budget 300000 backtracks)"}|};
    {|{"ts":0.0174,"dom":2,"w":"worker 1","seq":2,"type":"node_close","id":9,"obj":1.5,"reason":"bound"}|};
  ]

let golden_chrome =
  {|{"traceEvents":[
  {"ph":"B","name":"search","cat":"phase","pid":1,"tid":0,"ts":0,"args":{"seq":0}},
  {"ph":"B","name":"node","cat":"search","pid":1,"tid":0,"ts":1000,"args":{"seq":1,"id":1,"parent":-1,"depth":0,"bound":-1e999}},
  {"ph":"i","name":"prop_run","cat":"propagation","pid":1,"tid":0,"ts":1500,"args":{"seq":2,"steps":40,"fixings":2,"conflict":false},"s":"t"},
  {"ph":"X","name":"lu_factor","cat":"lp","pid":1,"tid":0,"ts":1990,"dur":10,"args":{"seq":3,"m":5,"fill":17,"probes":9}},
  {"ph":"X","name":"lp_solve","cat":"lp","pid":1,"tid":0,"ts":2750,"dur":250,"args":{"seq":4,"kind":"primal","pivots":12,"flips":3,"obj":1.5,"primal_res":1e-12,"dual_res":0}},
  {"ph":"X","name":"cert_check","cat":"certify","pid":1,"tid":0,"ts":2800,"dur":300,"args":{"seq":5,"node":1,"verdict":"certified","kind":"exact_optimum"}},
  {"ph":"E","name":"node","cat":"search","pid":1,"tid":0,"ts":4000,"args":{"seq":6,"id":1,"obj":1.5,"reason":"branched","var":3,"frac":0.25}},
  {"ph":"B","name":"node","cat":"search","pid":1,"tid":0,"ts":5000,"args":{"seq":7,"id":2,"parent":1,"depth":1,"bound":1.5}},
  {"ph":"i","name":"lu_refactor","cat":"lp","pid":1,"tid":0,"ts":5500,"args":{"seq":8,"trigger":"eta","etas":64},"s":"t"},
  {"ph":"i","name":"lu_refactor","cat":"lp","pid":1,"tid":0,"ts":5600,"args":{"seq":9,"trigger":"numeric","etas":7},"s":"t"},
  {"ph":"i","name":"lu_refactor","cat":"lp","pid":1,"tid":0,"ts":5700,"args":{"seq":10,"trigger":"residual","etas":0},"s":"t"},
  {"ph":"X","name":"lp_solve","cat":"lp","pid":1,"tid":0,"ts":5875,"dur":125,"args":{"seq":11,"kind":"dual","pivots":4,"flips":0,"obj":null,"primal_res":0,"dual_res":2e-09}},
  {"ph":"X","name":"cert_check","cat":"certify","pid":1,"tid":0,"ts":6100,"dur":0,"args":{"seq":12,"node":2,"verdict":"refuted","kind":"farkas_proof"}},
  {"ph":"E","name":"node","cat":"search","pid":1,"tid":0,"ts":7000,"args":{"seq":13,"id":2,"obj":null,"reason":"infeasible"}},
  {"ph":"B","name":"node","cat":"search","pid":1,"tid":0,"ts":8000,"args":{"seq":14,"id":3,"parent":1,"depth":1,"bound":1.5}},
  {"ph":"i","name":"prop_run","cat":"propagation","pid":1,"tid":0,"ts":8500,"args":{"seq":15,"steps":3,"fixings":0,"conflict":true},"s":"t"},
  {"ph":"E","name":"node","cat":"search","pid":1,"tid":0,"ts":9000,"args":{"seq":16,"id":3,"obj":null,"reason":"propagation"}},
  {"ph":"B","name":"node","cat":"search","pid":1,"tid":0,"ts":10000,"args":{"seq":17,"id":4,"parent":1,"depth":1,"bound":1.5}},
  {"ph":"i","name":"incumbent","cat":"search","pid":1,"tid":0,"ts":10500,"args":{"seq":18,"node":4,"obj":2,"source":"hook"},"s":"g"},
  {"ph":"E","name":"node","cat":"search","pid":1,"tid":0,"ts":11000,"args":{"seq":19,"id":4,"obj":null,"reason":"hook"}},
  {"ph":"B","name":"node","cat":"search","pid":1,"tid":0,"ts":12000,"args":{"seq":20,"id":5,"parent":1,"depth":1,"bound":1.5}},
  {"ph":"i","name":"incumbent","cat":"search","pid":1,"tid":0,"ts":12500,"args":{"seq":21,"node":5,"obj":1.75,"source":"search"},"s":"g"},
  {"ph":"E","name":"node","cat":"search","pid":1,"tid":0,"ts":13000,"args":{"seq":22,"id":5,"obj":1.75,"reason":"integral"}},
  {"ph":"B","name":"node","cat":"search","pid":1,"tid":0,"ts":14000,"args":{"seq":23,"id":6,"parent":1,"depth":1,"bound":1.5}},
  {"ph":"E","name":"node","cat":"search","pid":1,"tid":0,"ts":15000,"args":{"seq":24,"id":6,"obj":1.8,"reason":"bound"}},
  {"ph":"E","name":"search","cat":"phase","pid":1,"tid":0,"ts":16000,"args":{"seq":25}},
  {"ph":"B","name":"worker","cat":"phase","pid":1,"tid":1,"ts":5100,"args":{"seq":0}},
  {"ph":"B","name":"node","cat":"search","pid":1,"tid":1,"ts":5200,"args":{"seq":1,"id":7,"parent":1,"depth":1,"bound":1.5}},
  {"ph":"X","name":"cert_check","cat":"certify","pid":1,"tid":1,"ts":5299,"dur":1,"args":{"seq":2,"node":7,"verdict":"uncertifiable","kind":"none"}},
  {"ph":"E","name":"node","cat":"search","pid":1,"tid":1,"ts":5400,"args":{"seq":3,"id":7,"obj":-0.5,"reason":"unbounded"}},
  {"ph":"B","name":"node","cat":"search","pid":1,"tid":1,"ts":5800,"args":{"seq":4,"id":8,"parent":1,"depth":1,"bound":1.5}},
  {"ph":"E","name":"node","cat":"search","pid":1,"tid":1,"ts":5900,"args":{"seq":5,"id":8,"obj":1.6,"reason":"numeric"}},
  {"ph":"E","name":"worker","cat":"phase","pid":1,"tid":1,"ts":17100,"args":{"seq":6}},
  {"ph":"B","name":"node","cat":"search","pid":1,"tid":2,"ts":17200,"args":{"seq":0,"id":9,"parent":1,"depth":1,"bound":1.5}},
  {"ph":"i","name":"hook_give_up","cat":"search","pid":1,"tid":2,"ts":17300,"args":{"seq":1,"node":9,"what":"map 1,1,2 (budget 300000 backtracks)"},"s":"t"},
  {"ph":"E","name":"node","cat":"search","pid":1,"tid":2,"ts":17400,"args":{"seq":2,"id":9,"obj":1.5,"reason":"bound"}},
  {"ph":"M","name":"process_name","pid":1,"args":{"name":"tpart solve"}},
  {"ph":"M","name":"thread_name","pid":1,"tid":0,"args":{"name":"main"}},
  {"ph":"M","name":"thread_name","pid":1,"tid":1,"args":{"name":"worker 0"}},
  {"ph":"M","name":"thread_name","pid":1,"tid":2,"args":{"name":"worker 1"}}
],"displayTimeUnit":"ms"}
|}

let read_back write records =
  with_temp_file (fun path ->
      write_with write records path;
      read_all path)

(* The writers reproduce the pinned bytes, and decoding each pinned
   line gives back its record exactly (nan objectives and the infinite
   bound included). *)
let test_golden_encodings () =
  Alcotest.(check string) "jsonl"
    (String.concat "" (List.map (fun l -> l ^ "\n") golden_jsonl))
    (read_back Export.write_jsonl golden_records);
  Alcotest.(check string) "chrome" golden_chrome
    (read_back Export.write_chrome golden_records);
  List.iteri
    (fun i line ->
      match Result.bind (Json.parse line) Export.record_of_json with
      | Error m -> Alcotest.failf "line %d: %s" (i + 1) m
      | Ok r ->
        Alcotest.(check bool)
          (Printf.sprintf "line %d decodes to its record" (i + 1))
          true
          (compare r golden_records.(i) = 0))
    golden_jsonl

(* An unknown name for each enum is rejected, and the error names the
   field that holds it. *)
let test_golden_rejects_unknown_names () =
  List.iter
    (fun (line, field, value) ->
      let bad =
        match Json.parse (List.nth golden_jsonl line) with
        | Ok (Json.Obj kvs) when List.assoc_opt field kvs = Some (Json.Str value) ->
          Json.Obj
            (List.map (fun (k, v) -> (k, if k = field then Json.Str "bogus" else v)) kvs)
        | _ -> Alcotest.failf "line %d has no %s %S" line field value
      in
      match Export.record_of_json bad with
      | Ok _ -> Alcotest.failf "%s %S accepted" field "bogus"
      | Error m ->
        Alcotest.(check bool)
          (Printf.sprintf "error %S names field %S" m field)
          true
          (contains m (Printf.sprintf "%S" field)))
    [
      (4, "kind", "primal");
      (8, "trigger", "eta");
      (6, "reason", "branched");
      (5, "verdict", "certified");
      (18, "source", "hook");
    ]

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
(* A three-row knapsack with pseudo-random weights: at jobs 2, a tree
   of about 1,500 nodes, most of them on the two workers' writers. *)
let knapsack3 () =
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
  lp

let test_parallel_node_lp_table () =
  let lp = knapsack3 () in
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

(* Every hook give-up the search counts is one [Hook_give_up] event on
   a node the trace opens, carrying the hook's own description, on
   whichever writer processed the node. *)
let test_hook_give_up_traced () =
  let hook point ~is_fixed:_ =
    match point with
    | Bb.Lp_solution x -> (
      match Array.find_index (fun v -> Bb.fractionality v > 1e-6) x with
      | Some j when j mod 3 = 0 -> Bb.Hook_gave_up (Printf.sprintf "x%d" j)
      | _ -> Bb.Hook_none)
    | Bb.Bounds _ -> Bb.Hook_none
  in
  let tracer = Trace.create () in
  let options =
    { Bb.default_options with Bb.tracer; jobs = 2; deterministic = true; node_hook = Some hook }
  in
  let _, stats = Bb.solve ~options (knapsack3 ()) in
  let records = Trace.collect tracer in
  Alcotest.(check (list string)) "stream clean" [] (Export.check records);
  let opened = Hashtbl.create 64 and give_ups = ref [] in
  Array.iter
    (fun (r : Trace.record) ->
      match r.ev with
      | Trace.Node_open { id; _ } -> Hashtbl.replace opened id r.dom
      | Trace.Hook_give_up { node; what } -> give_ups := (r.dom, node, what) :: !give_ups
      | _ -> ())
    records;
  Alcotest.(check bool) "the hook gave up" true (!give_ups <> []);
  Alcotest.(check int) "one event per counted give-up"
    stats.Bb.deductions.Bb.hook_give_ups (List.length !give_ups);
  List.iter
    (fun (dom, node, what) ->
      Alcotest.(check (option int))
        (Printf.sprintf "node %d opened on the same writer" node)
        (Some dom) (Hashtbl.find_opt opened node);
      Alcotest.(check bool) ("description " ^ what) true (what.[0] = 'x'))
    !give_ups

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
          Alcotest.test_case "hook give-ups traced" `Quick
            test_hook_give_up_traced;
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
          Alcotest.test_case "pinned encodings" `Quick test_golden_encodings;
          Alcotest.test_case "unknown enum names rejected" `Quick
            test_golden_rejects_unknown_names;
        ] );
    ]
