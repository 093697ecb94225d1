(* The benchmark of record: what [tpart solve] runs by default, driven
   stage by stage so each stage is timed from outside the solver.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
       --budget S [--commit SHA] [--source-digest HEX]

   Each cell runs [Hls.Estimate.estimate], [Spec.make] and
   [Formulation.build] (the set-up), then [Temporal.Solver.solve] with
   its defaults at jobs 1, and checks the verdict against the cell's
   reference. [--trace 0] times a block of set-up-only rounds, then
   repeats whole passes over the workload for [--seconds] (at least
   two) and reports the end-to-end metrics;
   [--trace 1] runs each cell once untraced and once traced and reports
   the per-layer metrics. The last line of standard output is one JSON
   object; the exit code is 1 when a verdict is wrong or missing.
   run.py builds this program and supplies the budget and provenance
   arguments; README.md names every metric. *)

module Solver = Temporal.Solver
module Bb = Ilp.Branch_bound
module Json = Ilp.Json
module W = Workload

let now = Ilp.Mono.now

(* Minor words from [Gc.minor_words], which counts to the word: on OCaml
   5 [Gc.quick_stat]'s copy only moves at minor collections. Major
   words (direct major allocations plus promotions) move at collections
   by nature. *)
let gc_words () = (Gc.minor_words (), (Gc.quick_stat ()).Gc.major_words)

(* ---------------- one cell ---------------- *)

type setup = {
  estimate_s : float;
  estimate_words : float;
  formulate_s : float;  (* [Spec.make] + [Formulation.build] *)
  formulate_words : float;
}

let setup (c : W.cell) =
  let w0, _ = gc_words () in
  let t0 = now () in
  let seg = W.estimate c in
  let t1 = now () in
  let w1, _ = gc_words () in
  let vars = Temporal.Formulation.build (W.spec c (W.num_partitions c seg)) in
  let t2 = now () in
  let w2, _ = gc_words () in
  ( {
      estimate_s = t1 -. t0;
      estimate_words = w1 -. w0;
      formulate_s = t2 -. t1;
      formulate_words = w2 -. w1;
    },
    vars )

(* What a solve answered, small enough to keep once the report is
   dropped. The check against the reference comes later, so that the
   [random-small] oracle runs after [peak_heap_mb] is read. *)
type answer =
  | Design of int  (* communication cost of the validated design *)
  | Infeasible of Ilp.Certify.verdict option  (* root certificate *)
  | No_verdict
  | Raised of string

let answer (c : W.cell) (r : Solver.report) =
  match r.Solver.outcome with
  | Solver.Feasible sol ->
    let cost = sol.Temporal.Solution.comm_cost in
    (* The verdict is the design's communication cost, as [tpart solve]
       reports it; a model objective that disagrees with it is worth a
       warning but is not what the reference pins. *)
    let obj = Option.value r.Solver.objective ~default:Float.nan in
    if Float.abs (obj -. float cost) > 1e-6 then
      Printf.eprintf "perfbench: %s: model objective %g, design cost %d\n%!"
        c.W.name obj cost;
    Design cost
  | Solver.Infeasible_model ->
    Infeasible
      (Option.map
         (fun cert -> cert.Ilp.Certify.verdict)
         r.Solver.stats.Bb.certification.Bb.root_certificate)
  | Solver.Timed_out _ -> No_verdict

type verdict = Right | Wrong of string | Unfinished

let check (c : W.cell) answer =
  let expected, certified =
    match c.W.reference with
    | W.Cost k -> (Some k, false)
    | W.Infeasible_certified -> (None, true)
    | W.Oracle o -> (Lazy.force o, false)
  in
  match (answer, expected) with
  | No_verdict, _ -> Unfinished
  | Raised msg, _ -> Wrong msg
  | Design got, Some k when got = k -> Right
  | Design got, Some k -> Wrong (Printf.sprintf "cost %d, reference %d" got k)
  | Design got, None -> Wrong (Printf.sprintf "cost %d, reference infeasible" got)
  | Infeasible _, Some k -> Wrong (Printf.sprintf "infeasible, reference cost %d" k)
  | Infeasible _, None when not certified -> Right
  | Infeasible (Some Ilp.Certify.Certified), None -> Right
  | Infeasible (Some v), None -> Wrong ("root certificate " ^ Ilp.Certify.verdict_name v)
  | Infeasible None, None -> Wrong "infeasible without a root certificate"

(* What a pass keeps of one cell; the model and the report are dropped
   so that the benchmark's own retention stays out of [peak_heap_mb]. *)
type run = {
  cell : W.cell;
  setup : setup;
  solve_words : float * float;  (* minor, major *)
  wall_s : float;  (* set-up + solve *)
  answer : answer;
  counts : string;
      (* what must repeat exactly at jobs 1: search nodes, simplex
         pivots, factorizations and the formulation's minor words *)
}

let counts setup (report : Solver.report option) =
  let stat f =
    Option.fold ~none:(-1) ~some:(fun rep -> f rep.Solver.stats) report
  in
  Printf.sprintf "nodes=%d pivots=%d factorizations=%d formulate_words=%.0f"
    (stat (fun s -> s.Bb.nodes))
    (stat (fun s -> s.Bb.pivots))
    (stat (fun s -> s.Bb.lp_stats.Ilp.Simplex.factorizations))
    setup.formulate_words

(* One cell, set-up and solve; also returns the model and the report
   ([None] when the solve raised) for the traced pass to inspect. *)
let run_cell ~deadline ~tracer (w : W.t) (c : W.cell) =
  let t0 = now () in
  let setup, vars = setup c in
  let time_limit = Float.min w.W.cell_limit (deadline -. now ()) in
  let m0, j0 = gc_words () in
  let report =
    match Solver.solve ~certify:c.W.certify ~time_limit ~tracer vars with
    | r -> Ok r
    | exception e -> Error (Printexc.to_string e)
  in
  let t1 = now () in
  let m1, j1 = gc_words () in
  let answer, report =
    match report with
    | Ok r -> (answer c r, Some r)
    | Error msg -> (Raised msg, None)
  in
  ( {
      cell = c;
      setup;
      solve_words = (m1 -. m0, j1 -. j0);
      wall_s = t1 -. t0;
      answer;
      counts = counts setup report;
    },
    vars,
    report )

(* Cells whose counts differ from the first time this process ran them. *)
let drift seen runs =
  List.fold_left
    (fun n r ->
      match Hashtbl.find_opt seen r.cell.W.name with
      | None ->
        Hashtbl.add seen r.cell.W.name r.counts;
        n
      | Some c0 when c0 = r.counts -> n
      | Some c0 ->
        Printf.eprintf "perfbench: %s: counts drifted: %s, then %s\n%!"
          r.cell.W.name c0 r.counts;
        n + 1)
    0 runs

(* ---------------- passes and statistics ---------------- *)

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0. l

let geomean = function
  | [] -> 0.
  | xs -> Float.exp (sum Float.log xs /. float (List.length xs))

let pass ~deadline w =
  List.map
    (fun c ->
      let r, _, _ = run_cell ~deadline ~tracer:Ilp.Trace.disabled w c in
      r)
    w.W.cells

let pass_total runs = sum (fun r -> r.wall_s) runs

(* Each cell's fastest time over repetitions (lists in cell order), in
   cell order. The work is deterministic, and a shared VM has slow spells
   and phases from seconds to minutes long: a cell's fastest pass is what
   the code costs, where its median follows the machine. *)
let cell_fastest reps =
  let cols = List.map Array.of_list reps in
  List.mapi
    (fun i _ -> List.fold_left (fun m a -> Float.min m a.(i)) Float.infinity cols)
    (List.hd reps)

(* Set-up only, [rounds] rounds over the cells in one block. Returns one
   list of per-cell times per round. *)
let setup_block (w : W.t) rounds =
  List.init rounds (fun _ ->
      List.map
        (fun c ->
          let s, _ = setup c in
          s.estimate_s +. s.formulate_s)
        w.W.cells)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0. else (a.((n - 1) / 2) +. a.(n / 2)) /. 2.

(* A cell's time is the fastest of at least this many passes. *)
let min_passes = 2

let failures (w : W.t) runs =
  List.fold_left
    (fun (wrong, unfinished) r ->
      match check r.cell r.answer with
      | Right -> (wrong, unfinished)
      | Wrong msg ->
        Printf.eprintf "perfbench: %s: wrong verdict: %s\n%!" r.cell.W.name msg;
        (wrong + 1, unfinished)
      | Unfinished ->
        Printf.eprintf "perfbench: %s: no verdict within its %.0f s limit\n%!"
          r.cell.W.name w.W.cell_limit;
        (wrong, unfinished + 1))
    (0, 0) runs

(* Every cell of a small workload, the eight slowest of a large one. *)
let print_cells runs =
  let slowest =
    List.filteri
      (fun i _ -> i < 8)
      (List.stable_sort (fun a b -> Float.compare b.wall_s a.wall_s) runs)
  in
  List.iter
    (fun r ->
      Printf.printf "cell %s %s wall_s=%.4f %s\n" r.cell.W.name
        (match check r.cell r.answer with
         | Right -> "ok"
         | Wrong _ -> "WRONG"
         | Unfinished -> "UNFINISHED")
        r.wall_s r.counts)
    (List.filter (fun r -> List.memq r slowest) runs);
  Printf.printf "counts_digest %s\n"
    (Digest.to_hex
       (Digest.string (String.concat ";" (List.map (fun r -> r.counts) runs))))

(* ---------------- the traced pass ---------------- *)

let presolve_probe layers lp =
  let m0, j0 = gc_words () in
  let res = Ilp.Presolve.presolve lp in
  let m1, j1 = gc_words () in
  Layers.add layers "presolve.minor_words" (m1 -. m0);
  Layers.add layers "presolve.rows_out"
    (match res with
     | Ilp.Presolve.Reduced (reduced, _) -> float (Ilp.Lp.num_constrs reduced)
     | Ilp.Presolve.Infeasible _ -> 0.);
  (m1 -. m0, j1 -. j0)

(* The traced run: each cell untraced, then traced, so that the host's
   slow spells fall on both alike. The untraced runs give
   [trace.overhead_pct] and the search's GC words (trace events allocate
   too). Everything but a cell's own set-up and solve happens outside
   its wall time. Returns the untraced and the traced runs. *)
let traced_pass ~deadline layers w =
  List.split
    (List.map
       (fun c ->
         let u, _, _ = run_cell ~deadline ~tracer:Ilp.Trace.disabled w c in
         let tracer = Ilp.Trace.create () in
         let r, vars, report = run_cell ~deadline ~tracer w c in
         let add = Layers.add layers in
         add "estimate.s" r.setup.estimate_s;
         add "estimate.minor_words" r.setup.estimate_words;
         add "formulate.s" r.setup.formulate_s;
         add "formulate.minor_words" r.setup.formulate_words;
         add "formulate.vars" (float (Temporal.Vars.num_vars vars));
         add "formulate.constrs" (float (Temporal.Vars.num_constrs vars));
         let pm, pj = presolve_probe layers vars.Temporal.Vars.lp in
         let sm, sj = u.solve_words in
         add "search.minor_words" (sm -. pm);
         add "search.major_words" (sj -. pj);
         Option.iter
           (fun rep ->
             let node_lps = Layers.add_trace layers (Ilp.Trace.collect tracer) in
             let nodes = rep.Solver.stats.Bb.nodes in
             (* one LP per node past the root, unless a node restarted
                after its LP hit the pivot limit *)
             if nodes > 0 && node_lps <> nodes - 1 then
               Printf.eprintf "perfbench: %s: %d node LPs traced for %d nodes\n%!"
                 c.W.name node_lps nodes;
             Layers.add_stats layers rep.Solver.stats)
           report;
         if Ilp.Trace.dropped tracer > 0 then
           Printf.eprintf "perfbench: %s: trace dropped %d events\n%!" c.W.name
             (Ilp.Trace.dropped tracer);
         (u, r))
       w.W.cells)

(* ---------------- output ---------------- *)

let certify_name = function
  | Bb.Cert_off -> "off"
  | Bb.Cert_root -> "root"
  | Bb.Cert_incumbents -> "incumbents"
  | Bb.Cert_all -> "all"

(* What the solve runs: [Solver.solve]'s defaults. The commit and the
   source digest pin what those defaults are. *)
let solver_config (w : W.t) =
  Json.Obj
    [
      ("entry", Json.Str "Temporal.Solver.solve defaults");
      ("pricing", Json.Str "devex");
      ("lu", Json.Str "bucket");
      ("jobs", Json.Num 1.);
      ("presolve", Json.Bool true);
      ("completion_hook", Json.Bool true);
      ("validate", Json.Bool true);
      ( "certify",
        Json.Str
          (match w.W.cells with c :: _ -> certify_name c.W.certify | [] -> "off") );
      ("formulation", Json.Str "Formulation.default_options");
      ("capacity_paper", Json.Num (float W.capacity));
      ("scratch_paper", Json.Num (float W.scratch));
      ("cell_limit_s", Json.Num w.W.cell_limit);
    ]

let provenance ~w ~seed ~seconds ~trace ~commit ~digest =
  Json.Obj
    [
      ("workload", Json.Str w.W.name);
      ("seed", Json.Num (float seed));
      ("seconds", Json.Num seconds);
      ("trace", Json.Num (float trace));
      ("cells", Json.Num (float (List.length w.W.cells)));
      ("nproc", Json.Num (float (Domain.recommended_domain_count ())));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("commit", Json.Str commit);
      ("source_digest", Json.Str digest);
      ("solver", solver_config w);
    ]

let result ~correct ~attempted ~failed metrics =
  Json.Obj
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Num (float attempted));
      ("failed", Json.Num (float failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, v, unit) ->
               (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]))
             metrics) );
    ]

let peak_heap_mb () =
  float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* ---------------- main ---------------- *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. in
  let trace = ref 0 and budget = ref Float.nan in
  let commit = ref "unknown" and digest = ref "unknown" in
  let usage =
    "perfbench.exe --workload (" ^ String.concat "|" W.names
    ^ ") --seed N --seconds S --trace 0|1 --budget S [--commit SHA] \
       [--source-digest HEX]"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time (at least one pass)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--budget", Arg.Set_float budget, "S hard wall-clock budget of the run");
      ("--commit", Arg.Set_string commit, "SHA recorded in the provenance");
      ("--source-digest", Arg.Set_string digest, "HEX recorded in the provenance");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if
    (not (List.mem !workload W.names))
    || (!trace <> 0 && !trace <> 1)
    || Float.is_nan !budget
  then begin
    prerr_endline usage;
    exit 2
  end;
  let deadline = now () +. !budget in
  let w = W.make ~seed:!seed !workload in
  print_endline
    ("provenance "
    ^ Json.to_string
        (provenance ~w ~seed:!seed ~seconds:!seconds ~trace:!trace ~commit:!commit
           ~digest:!digest));
  let seen = Hashtbl.create 64 in
  (* Each mode returns its runs and its metrics given the failure counts
     over those runs. *)
  let runs, drifted, metrics =
    if !trace = 0 then begin
      (* [w.setup_rounds] set-up rounds before the first pass, a fixed
         count so that the allocation before it, and with it
         [peak_heap_mb], is the same in every run; then an eighth as
         many before each later pass, so that the set-up is also timed
         across the run and meets the host's fast spells. *)
      let setups = ref (setup_block w w.W.setup_rounds) in
      let t0 = now () in
      let first = pass ~deadline w in
      let peak = peak_heap_mb () in
      let rec go n passes =
        match passes with
        | last :: _
          when (n >= min_passes && now () -. t0 >= !seconds)
               || now () +. (1.5 *. pass_total last) > deadline ->
          List.rev passes
        | _ ->
          setups := setup_block w (w.W.setup_rounds / 8) @ !setups;
          go (n + 1) (pass ~deadline w :: passes)
      in
      let passes = go 1 [ first ] in
      let setups = !setups in
      let drifted = List.fold_left (fun n p -> n + drift seen p) 0 passes in
      let walls = cell_fastest (List.map (List.map (fun r -> r.wall_s)) passes) in
      (* each cell's fastest set-up, in a set-up block or in a pass *)
      let in_passes =
        List.map
          (List.map (fun r -> r.setup.estimate_s +. r.setup.formulate_s))
          passes
      in
      let setup_fastest = sum Fun.id (cell_fastest (setups @ in_passes)) in
      let setup_median = median (List.map (sum Fun.id) setups) in
      Printf.printf "passes %d:%s\n" (List.length passes)
        (String.concat ""
           (List.map (fun p -> Printf.sprintf " %.4f" (pass_total p)) passes));
      Printf.printf "setup %d rounds: fastest %.6f median %.6f\n"
        (List.length setups) setup_fastest setup_median;
      print_cells first;
      ( List.concat passes,
        drifted,
        fun ~wrong:_ ~unfinished:_ ->
          [
            ("total_s", sum Fun.id walls, "s");
            ("cell_s_geomean", geomean walls, "s");
            ("setup_s", setup_fastest, "s");
            ("peak_heap_mb", peak, "MB");
          ] )
    end
    else begin
      let layers = Layers.create () in
      (* warms the heap as in a timed run *)
      ignore (setup_block w w.W.setup_rounds);
      let untraced, traced = traced_pass ~deadline layers w in
      let drifted = drift seen untraced + drift seen traced in
      let tu = pass_total untraced and tt = pass_total traced in
      print_cells traced;
      ( untraced @ traced,
        drifted,
        fun ~wrong ~unfinished ->
          Layers.set layers "oracle.s" !W.oracle_s;
          Layers.set layers "trace.overhead_pct" (100. *. (tt -. tu) /. tu);
          Layers.set layers "wrong_verdicts" (float wrong);
          Layers.set layers "unfinished" (float unfinished);
          Layers.set layers "counts.drift" (float drifted);
          Layers.metrics layers )
    end
  in
  let wrong, unfinished = failures w runs in
  Printf.printf "counts_drift %d\n" drifted;
  let failed = wrong + unfinished in
  print_endline
    (Json.to_string
       (result ~correct:(failed = 0) ~attempted:(List.length runs) ~failed
          (metrics ~wrong ~unfinished)));
  exit (if failed = 0 then 0 else 1)
