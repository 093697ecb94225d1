type counter =
  | C_nodes
  | C_incumbents
  | C_certified_nodes
  | C_lp_solves
  | C_lp_pivots
  | C_lp_bound_flips
  | C_lp_dual_stalls
  | C_lp_primal_restarts
  | C_ftran_solves
  | C_ftran_hyper
  | C_btran_solves
  | C_btran_hyper
  | C_lu_factorizations
  | C_lu_refactorizations
  | C_lu_probes
  | C_prop_runs
  | C_prop_fixings
  | C_pool_steals
  | C_pool_handoffs
  | C_pool_hungry_polls
  | C_trace_dropped_events

type gauge = G_open_nodes | G_best_bound | G_incumbent_obj | G_pool_depth | G_workers

type histogram = H_factor_seconds | H_lp_seconds

let counter_name = function
  | C_nodes -> "nodes"
  | C_incumbents -> "incumbents"
  | C_certified_nodes -> "certified_nodes"
  | C_lp_solves -> "lp_solves"
  | C_lp_pivots -> "lp_pivots"
  | C_lp_bound_flips -> "lp_bound_flips"
  | C_lp_dual_stalls -> "lp_dual_stalls"
  | C_lp_primal_restarts -> "lp_primal_restarts"
  | C_ftran_solves -> "ftran_solves"
  | C_ftran_hyper -> "ftran_hyper"
  | C_btran_solves -> "btran_solves"
  | C_btran_hyper -> "btran_hyper"
  | C_lu_factorizations -> "lu_factorizations"
  | C_lu_refactorizations -> "lu_refactorizations"
  | C_lu_probes -> "lu_probes"
  | C_prop_runs -> "prop_runs"
  | C_prop_fixings -> "prop_fixings"
  | C_pool_steals -> "pool_steals"
  | C_pool_handoffs -> "pool_handoffs"
  | C_pool_hungry_polls -> "pool_hungry_polls"
  | C_trace_dropped_events -> "trace_dropped_events"

let gauge_name = function
  | G_open_nodes -> "open_nodes"
  | G_best_bound -> "best_bound"
  | G_incumbent_obj -> "incumbent_obj"
  | G_pool_depth -> "pool_depth"
  | G_workers -> "workers"

let histogram_name = function
  | H_factor_seconds -> "factor_seconds"
  | H_lp_seconds -> "lp_seconds"

let all_counters =
  [|
    C_nodes;
    C_incumbents;
    C_certified_nodes;
    C_lp_solves;
    C_lp_pivots;
    C_lp_bound_flips;
    C_lp_dual_stalls;
    C_lp_primal_restarts;
    C_ftran_solves;
    C_ftran_hyper;
    C_btran_solves;
    C_btran_hyper;
    C_lu_factorizations;
    C_lu_refactorizations;
    C_lu_probes;
    C_prop_runs;
    C_prop_fixings;
    C_pool_steals;
    C_pool_handoffs;
    C_pool_hungry_polls;
    C_trace_dropped_events;
  |]

let all_gauges =
  [| G_open_nodes; G_best_bound; G_incumbent_obj; G_pool_depth; G_workers |]

let all_histograms = [| H_factor_seconds; H_lp_seconds |]

let n_counters = Array.length all_counters
let n_gauges = Array.length all_gauges
let n_hists = Array.length all_histograms

let counter_index = function
  | C_nodes -> 0
  | C_incumbents -> 1
  | C_certified_nodes -> 2
  | C_lp_solves -> 3
  | C_lp_pivots -> 4
  | C_lp_bound_flips -> 5
  | C_lp_dual_stalls -> 6
  | C_lp_primal_restarts -> 7
  | C_ftran_solves -> 8
  | C_ftran_hyper -> 9
  | C_btran_solves -> 10
  | C_btran_hyper -> 11
  | C_lu_factorizations -> 12
  | C_lu_refactorizations -> 13
  | C_lu_probes -> 14
  | C_prop_runs -> 15
  | C_prop_fixings -> 16
  | C_pool_steals -> 17
  | C_pool_handoffs -> 18
  | C_pool_hungry_polls -> 19
  | C_trace_dropped_events -> 20

let gauge_index = function
  | G_open_nodes -> 0
  | G_best_bound -> 1
  | G_incumbent_obj -> 2
  | G_pool_depth -> 3
  | G_workers -> 4

let histogram_index = function H_factor_seconds -> 0 | H_lp_seconds -> 1

let of_name all name arr =
  Array.find_opt (fun x -> String.equal (name x) arr) all

let counter_of_name = of_name all_counters counter_name
let gauge_of_name = of_name all_gauges gauge_name
let histogram_of_name = of_name all_histograms histogram_name

(* Log2 duration buckets: bucket i <= 1e-6 * 2^i seconds for
   i < n_buckets - 1 (1 us .. ~67 s), then the +Inf overflow. *)
let n_buckets = 28

let bucket_le i =
  if i >= n_buckets - 1 then Float.infinity else Float.ldexp 1e-6 i

let bucket_of dt =
  let i = ref 0 in
  while !i < n_buckets - 1 && dt > Float.ldexp 1e-6 !i do
    incr i
  done;
  !i

(* One single-writer accumulation buffer. Histogram storage is
   flattened: histogram h owns cells [h * n_buckets, ...) of [hb]. *)
type buf = {
  c : int array;  (* per-counter totals *)
  hb : int array;  (* per-histogram bucket counts, flattened *)
  hs : float array;  (* per-histogram duration sums *)
  hm : float array;  (* per-histogram maxima *)
}

let make_buf () =
  {
    c = Array.make n_counters 0;
    hb = Array.make (n_hists * n_buckets) 0;
    hs = Array.make n_hists 0.;
    hm = Array.make n_hists 0.;
  }

type shard = Null | S of buf

type live = {
  created : float;
  lock : Mutex.t;  (* guards [shards] and [polls] registration *)
  mutable shards : buf list;
  gauges : float Atomic.t array;
  shared : int Atomic.t array;  (* registry-level absolute counter cells *)
  mutable polls : (unit -> unit) list;
  main_buf : buf;
}

type t = Disabled | On of live

let disabled = Disabled

let create () =
  let main_buf = make_buf () in
  On
    {
      created = Mono.now ();
      lock = Mutex.create ();
      shards = [ main_buf ];
      gauges = Array.init n_gauges (fun _ -> Atomic.make Float.nan);
      shared = Array.init n_counters (fun _ -> Atomic.make 0);
      polls = [];
      main_buf;
    }

let enabled = function Disabled -> false | On _ -> true

let null_shard = Null

let active = function Null -> false | S _ -> true [@@inline]

let main = function Disabled -> Null | On l -> S l.main_buf

let make_shard = function
  | Disabled -> Null
  | On l ->
    let b = make_buf () in
    Mutex.protect l.lock (fun () -> l.shards <- b :: l.shards);
    S b

let add s cnt n =
  match s with
  | Null -> ()
  | S b ->
    let i = counter_index cnt in
    b.c.(i) <- b.c.(i) + n

let incr s cnt = add s cnt 1

let observe s h dt =
  match s with
  | Null -> ()
  | S b ->
    let hi = histogram_index h in
    let k = (hi * n_buckets) + bucket_of dt in
    b.hb.(k) <- b.hb.(k) + 1;
    b.hs.(hi) <- b.hs.(hi) +. dt;
    if dt > b.hm.(hi) then b.hm.(hi) <- dt

let set_gauge t g v =
  match t with
  | Disabled -> ()
  | On l -> Atomic.set l.gauges.(gauge_index g) v

let set_shared t cnt v =
  match t with
  | Disabled -> ()
  | On l -> Atomic.set l.shared.(counter_index cnt) v

let add_shared t cnt n =
  match t with
  | Disabled -> ()
  | On l -> ignore (Atomic.fetch_and_add l.shared.(counter_index cnt) n)

let on_snapshot t f =
  match t with
  | Disabled -> ()
  | On l -> Mutex.protect l.lock (fun () -> l.polls <- f :: l.polls)

let now = function Disabled -> 0. | On l -> Mono.elapsed_since l.created

type hist = {
  h_count : int;
  h_sum : float;
  h_max : float;
  h_buckets : int array;
}

type snapshot = {
  s_ts : float;
  s_counters : int array;
  s_gauges : float array;
  s_hists : hist array;
}

let empty_hist =
  { h_count = 0; h_sum = 0.; h_max = 0.; h_buckets = Array.make n_buckets 0 }

let empty_snapshot =
  {
    s_ts = 0.;
    s_counters = Array.make n_counters 0;
    s_gauges = Array.make n_gauges Float.nan;
    s_hists = Array.make n_hists empty_hist;
  }

(* Merging reads shard cells without synchronization: every cell has a
   single writer and is word-sized, so a read returns some committed
   value of that cell (no tearing) — a momentary view mid-run, the
   exact totals once the writers have joined. The bucket counts are
   the histogram's source of truth ([h_count] is their sum), so the
   count-equals-bucket-sum invariant holds even on racy reads. *)
let snapshot t =
  match t with
  | Disabled -> empty_snapshot
  | On l ->
    List.iter (fun f -> f ()) l.polls;
    let shards = l.shards in
    let counters = Array.make n_counters 0 in
    Array.iteri (fun i a -> counters.(i) <- Atomic.get a) l.shared;
    let hb = Array.make (n_hists * n_buckets) 0 in
    let hs = Array.make n_hists 0. and hm = Array.make n_hists 0. in
    List.iter
      (fun b ->
        for i = 0 to n_counters - 1 do
          counters.(i) <- counters.(i) + b.c.(i)
        done;
        for k = 0 to (n_hists * n_buckets) - 1 do
          hb.(k) <- hb.(k) + b.hb.(k)
        done;
        for h = 0 to n_hists - 1 do
          hs.(h) <- hs.(h) +. b.hs.(h);
          if b.hm.(h) > hm.(h) then hm.(h) <- b.hm.(h)
        done)
      shards;
    let hists =
      Array.init n_hists (fun h ->
          let buckets = Array.sub hb (h * n_buckets) n_buckets in
          {
            h_count = Array.fold_left ( + ) 0 buckets;
            h_sum = hs.(h);
            h_max = hm.(h);
            h_buckets = buckets;
          })
    in
    {
      s_ts = Mono.elapsed_since l.created;
      s_counters = counters;
      s_gauges = Array.map Atomic.get l.gauges;
      s_hists = hists;
    }

let counter_value s c = s.s_counters.(counter_index c)
let gauge_value s g = s.s_gauges.(gauge_index g)
let hist_value s h = s.s_hists.(histogram_index h)
