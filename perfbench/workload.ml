(* The workloads of the benchmark of record: the cells one pass solves
   and the reference each verdict is checked against. *)

module G = Taskgraph.Graph
module Spec = Temporal.Spec

type reference =
  | Cost of int  (* pinned optimum *)
  | Infeasible_certified  (* infeasible, with a [Certified] root certificate *)
  | Oracle of int option Lazy.t
      (* [Enumerate.optimal_cost] of the same spec; [None] = infeasible.
         Forced only when a verdict is checked, after the first pass, so
         that the oracle's heap stays out of [peak_heap_mb]. *)

type cell = {
  name : string;
  graph : G.t;
  ams : int * int * int;
  capacity : int;
  scratch : int;
  latency : int;
  partitions : int option;
      (* [None]: N is estimated, as [tpart solve] does without [-n] *)
  certify : Ilp.Branch_bound.certify_level;
  reference : reference;
}

type t = {
  name : string;
  cells : cell list;
  cell_limit : float;  (* per-cell safety limit, seconds *)
  setup_rounds : int;
      (* set-up-only rounds over the cells before the first pass, about
         1 s *)
}

(* Time spent computing [Oracle] references so far. *)
let oracle_s = ref 0.

let names = [ "paper-tree"; "paper-refute"; "random-small" ]

(* The device of bench/main.ml: the paper publishes neither C nor Ms. *)
let capacity = 70
let scratch = 30

(* Stage 1 of the flow, exactly as [Temporal.Pipeline.run]: a throwaway
   spec supplies the capacity, alpha and step budget of the estimate. *)
let estimate c =
  let allocation = Hls.Component.ams c.ams in
  let probe =
    Spec.make ~graph:c.graph ~allocation ~capacity:c.capacity
      ~scratch:c.scratch ~latency_relax:c.latency ~num_partitions:1 ()
  in
  Hls.Estimate.estimate c.graph allocation
    {
      Hls.Estimate.capacity = probe.Spec.capacity;
      alpha = probe.Spec.alpha;
      max_steps = Spec.num_steps probe;
    }

let num_partitions c seg =
  match (c.partitions, seg) with
  | Some n, _ -> n
  | None, Some seg -> Hls.Estimate.num_segments seg
  | None, None -> G.num_tasks c.graph

let spec c n =
  Spec.make ~graph:c.graph ~allocation:(Hls.Component.ams c.ams)
    ~capacity:c.capacity ~scratch:c.scratch ~latency_relax:c.latency
    ~num_partitions:n ()

let paper ~gno ~ams ~n ~l ~certify reference =
  {
    name = Printf.sprintf "g%d-N%d-L%d" gno n l;
    graph = Taskgraph.Examples.paper_graph gno;
    ams;
    capacity;
    scratch;
    latency = l;
    partitions = Some n;
    certify;
    reference;
  }

(* Graph 1 one step past its Table-3 frontier (N=2, L=4; EXPERIMENTS.md
   lists the row): the root LP is fractional, and the one node LP is a
   warm dual reopt that hits the dual cap and restarts cold, about 95 %
   of the solve. Cost 0 needs no pinned oracle: no design costs less,
   and [Solution.validate] checks the one returned. The Table-3 point
   (N=2, L=3, cost 3) and the Table-4 point (N=3, L=1, cost 6) stall in
   the same layer, but one solve takes 15-50 s, far longer than the fast
   spells of a shared host, so their times follow the host. *)
let paper_tree () =
  [
    paper ~gno:1 ~ams:(2, 2, 1) ~n:2 ~l:4 ~certify:Ilp.Branch_bound.Cert_off
      (Cost 0);
  ]

(* Infeasible cells decided at the root: one cold phase-1 LP, its LU and
   an exact Farkas check each; node LPs and the hook do no work. *)
let paper_refute () =
  let cell gno ~n ~l =
    paper ~gno ~ams:(2, 2, 2) ~n ~l ~certify:Ilp.Branch_bound.Cert_root
      Infeasible_certified
  in
  [ cell 3 ~n:3 ~l:1; cell 5 ~n:2 ~l:1; cell 6 ~n:3 ~l:0 ]

(* The [rand_small_spec] shape of test/test_temporal.ml — 1+1+1, tasks +
   0-4 operations, C in {45, 60, 200}, Ms in {2, 5, 100}, L in 0-2 —
   with N estimated, but 2-3 tasks instead of 2-4: some 4-task draws (8
   of 108 for seed 1) stall in the dual simplex for seconds, so a
   pass's time would follow how many such draws a seed makes rather
   than the per-solve cost this workload is for (paper-tree measures
   the stall). Task count, extra operations, C, Ms and L are
   stratified, one cell per combination and round, so every seed draws
   the same parameter mix and only the graphs differ. *)
let random_small_rounds = 4

let random_small ~seed =
  let rng = Taskgraph.Prng.create seed in
  let strata = 2 * 5 * 3 * 3 * 3 in
  List.init (strata * random_small_rounds) (fun i ->
      let k = i mod strata in
      let tasks = 2 + (k mod 2) in
      let ops = tasks + (k / 54 mod 5) in
      let gseed = Taskgraph.Prng.int rng 1_000_000_000 in
      let graph =
        Taskgraph.Generator.generate
          (Taskgraph.Generator.default ~tasks ~ops ~seed:gseed)
      in
      (* the reference: exhaustive search on the spec the cell solves *)
      let rec c =
        {
          name = Printf.sprintf "r%03d" i;
          graph;
          ams = (1, 1, 1);
          capacity = List.nth [ 45; 60; 200 ] (k / 2 mod 3);
          scratch = List.nth [ 2; 5; 100 ] (k / 6 mod 3);
          latency = k / 18 mod 3;
          partitions = None;
          certify = Ilp.Branch_bound.Cert_off;
          reference =
            Oracle
              (lazy
                (let t0 = Ilp.Mono.now () in
                 let n = num_partitions c (estimate c) in
                 let cost = Temporal.Enumerate.optimal_cost (spec c n) in
                 oracle_s := !oracle_s +. Ilp.Mono.elapsed_since t0;
                 cost));
        }
      in
      c)

let make ~seed name =
  match name with
  | "paper-tree" ->
    { name; cells = paper_tree (); cell_limit = 60.; setup_rounds = 800 }
  | "paper-refute" ->
    { name; cells = paper_refute (); cell_limit = 60.; setup_rounds = 150 }
  | "random-small" ->
    { name; cells = random_small ~seed; cell_limit = 20.; setup_rounds = 15 }
  | _ -> invalid_arg ("unknown workload " ^ name)
