type counter =
  | C_nodes
  | C_incumbents
  | C_lp_solves
  | C_lp_pivots
  | C_lp_bound_flips
  | C_lp_dual_stalls
  | C_lp_primal_restarts
  | C_lp_cold_primal
  | C_lp_singular_restarts
  | C_lp_basis_installs
  | C_lp_install_fallbacks
  | C_lp_ray_infeasible
  | C_ftran_solves
  | C_ftran_hyper
  | C_btran_solves
  | C_btran_hyper
  | C_lu_factorizations
  | C_lu_refactor_eta
  | C_lu_refactor_numeric
  | C_lu_refactor_residual
  | C_lu_etas
  | C_lu_probes
  | C_gc_compactions
  | C_prop_runs
  | C_prop_fixings
  | C_prop_prunes
  | C_rc_fixed
  | C_hook_calls
  | C_hook_give_ups
  | C_hook_pre_lp
  | C_cert_checked
  | C_certified_nodes
  | C_cert_refuted
  | C_cert_uncertifiable
  | C_pool_steals
  | C_pool_handoffs
  | C_pool_hungry_polls
  | C_trace_dropped_events

type sum =
  | S_ftran_seconds
  | S_btran_seconds
  | S_update_seconds
  | S_gc_minor_words
  | S_gc_major_words
  | S_prop_seconds
  | S_hook_seconds
  | S_cert_seconds
  | S_pool_idle_seconds

type gauge = G_open_nodes | G_best_bound | G_incumbent_obj | G_pool_depth | G_workers

type histogram = H_factor_seconds | H_lp_seconds

(* Each family is one table of (constructor, name) in declaration
   order; the [all_*] arrays and the names are read off it. A constant
   constructor is represented by its declaration index, which is
   therefore its position in the table — checked once at start-up. *)
let counter_table =
  [|
    (C_nodes, "nodes");
    (C_incumbents, "incumbents");
    (C_lp_solves, "lp_solves");
    (C_lp_pivots, "lp_pivots");
    (C_lp_bound_flips, "lp_bound_flips");
    (C_lp_dual_stalls, "lp_dual_stalls");
    (C_lp_primal_restarts, "lp_primal_restarts");
    (C_lp_cold_primal, "lp_cold_primal");
    (C_lp_singular_restarts, "lp_singular_restarts");
    (C_lp_basis_installs, "lp_basis_installs");
    (C_lp_install_fallbacks, "lp_install_fallbacks");
    (C_lp_ray_infeasible, "lp_ray_infeasible");
    (C_ftran_solves, "ftran_solves");
    (C_ftran_hyper, "ftran_hyper");
    (C_btran_solves, "btran_solves");
    (C_btran_hyper, "btran_hyper");
    (C_lu_factorizations, "lu_factorizations");
    (C_lu_refactor_eta, "lu_refactor_eta");
    (C_lu_refactor_numeric, "lu_refactor_numeric");
    (C_lu_refactor_residual, "lu_refactor_residual");
    (C_lu_etas, "lu_etas");
    (C_lu_probes, "lu_probes");
    (C_gc_compactions, "gc_compactions");
    (C_prop_runs, "prop_runs");
    (C_prop_fixings, "prop_fixings");
    (C_prop_prunes, "prop_prunes");
    (C_rc_fixed, "rc_fixed");
    (C_hook_calls, "hook_calls");
    (C_hook_give_ups, "hook_give_ups");
    (C_hook_pre_lp, "hook_pre_lp");
    (C_cert_checked, "cert_checked");
    (C_certified_nodes, "certified_nodes");
    (C_cert_refuted, "cert_refuted");
    (C_cert_uncertifiable, "cert_uncertifiable");
    (C_pool_steals, "pool_steals");
    (C_pool_handoffs, "pool_handoffs");
    (C_pool_hungry_polls, "pool_hungry_polls");
    (C_trace_dropped_events, "trace_dropped_events");
  |]

let sum_table =
  [|
    (S_ftran_seconds, "ftran_seconds");
    (S_btran_seconds, "btran_seconds");
    (S_update_seconds, "update_seconds");
    (S_gc_minor_words, "gc_minor_words");
    (S_gc_major_words, "gc_major_words");
    (S_prop_seconds, "prop_seconds");
    (S_hook_seconds, "hook_seconds");
    (S_cert_seconds, "cert_seconds");
    (S_pool_idle_seconds, "pool_idle_seconds");
  |]

let gauge_table =
  [|
    (G_open_nodes, "open_nodes");
    (G_best_bound, "best_bound");
    (G_incumbent_obj, "incumbent_obj");
    (G_pool_depth, "pool_depth");
    (G_workers, "workers");
  |]

let histogram_table =
  [| (H_factor_seconds, "factor_seconds"); (H_lp_seconds, "lp_seconds") |]

let counter_index (c : counter) : int = Obj.magic c [@@inline]
let sum_index (s : sum) : int = Obj.magic s [@@inline]
let gauge_index (g : gauge) : int = Obj.magic g [@@inline]
let histogram_index (h : histogram) : int = Obj.magic h [@@inline]

let () =
  let check index table =
    Array.iteri
      (fun i (x, name) ->
        if index x <> i then failwith ("Metrics: table out of order at " ^ name))
      table
  in
  check counter_index counter_table;
  check sum_index sum_table;
  check gauge_index gauge_table;
  check histogram_index histogram_table

let all_counters = Array.map fst counter_table
let all_sums = Array.map fst sum_table
let all_gauges = Array.map fst gauge_table
let all_histograms = Array.map fst histogram_table
let counter_name c = snd counter_table.(counter_index c)
let sum_name s = snd sum_table.(sum_index s)
let gauge_name g = snd gauge_table.(gauge_index g)
let histogram_name h = snd histogram_table.(histogram_index h)

let of_name table name =
  Array.find_map (fun (x, n) -> if String.equal n name then Some x else None) table

let counter_of_name = of_name counter_table
let sum_of_name = of_name sum_table
let gauge_of_name = of_name gauge_table
let histogram_of_name = of_name histogram_table

let n_counters = Array.length counter_table
let n_sums = Array.length sum_table
let n_gauges = Array.length gauge_table
let n_hists = Array.length histogram_table

(* Log2 duration buckets: bucket i <= 1e-6 * 2^i seconds for
   i < n_buckets - 1 (1 us .. ~67 s), then the +Inf overflow. *)
let n_buckets = 28

let bucket_le i =
  if i >= n_buckets - 1 then Float.infinity else Float.ldexp 1e-6 i

let bucket_of dt =
  (* [frexp] puts dt / 1e-6 in [2^(e-1), 2^e): every bucket below e - 1
     is exceeded, so the exact scan starts there *)
  let e = if dt > 1e-6 then snd (Float.frexp (dt /. 1e-6)) else 0 in
  let i = ref (Int.max 0 (Int.min (n_buckets - 1) (e - 2))) in
  while !i < n_buckets - 1 && dt > Float.ldexp 1e-6 !i do
    incr i
  done;
  !i

(* One single-writer accumulation buffer. Histogram storage is
   flattened: histogram h owns cells [h * n_buckets, ...) of [hb]. The
   node-LP samples are three parallel growable arrays of [nl_n]
   entries. *)
type shard = {
  tw : Trace.writer;  (* the owning context's event writer *)
  c : int array;  (* per-counter totals *)
  f : float array;  (* per-sum totals *)
  hb : int array;  (* per-histogram bucket counts, flattened *)
  hs : float array;  (* per-histogram duration sums *)
  hm : float array;  (* per-histogram maxima *)
  mutable nl_n : int;
  mutable nl_reason : int array;  (* index into [Trace.close_reasons] *)
  mutable nl_pivots : int array;
  mutable nl_seconds : float array;
}

type t = {
  created : float;
  lock : Mutex.t;  (* guards [shards], [shared] and [polls] *)
  mutable shards : shard list;
  gauges : float Atomic.t array;
  shared : int array;  (* registry-level absolute counter cells *)
  mutable polls : (unit -> unit) list;
}

let create () =
  {
    created = Mono.now ();
    lock = Mutex.create ();
    shards = [];
    gauges = Array.init n_gauges (fun _ -> Atomic.make Float.nan);
    shared = Array.make n_counters 0;
    polls = [];
  }

let make_shard ?registry ?(writer = Trace.null_writer) () =
  let b =
    {
      tw = writer;
      c = Array.make n_counters 0;
      f = Array.make n_sums 0.;
      hb = Array.make (n_hists * n_buckets) 0;
      hs = Array.make n_hists 0.;
      hm = Array.make n_hists 0.;
      nl_n = 0;
      nl_reason = [||];
      nl_pivots = [||];
      nl_seconds = [||];
    }
  in
  Option.iter
    (fun l -> Mutex.protect l.lock (fun () -> l.shards <- b :: l.shards))
    registry;
  b

let writer b = b.tw
let shard_count l = Mutex.protect l.lock (fun () -> List.length l.shards)

let add b cnt n =
  let i = counter_index cnt in
  b.c.(i) <- b.c.(i) + n
[@@inline]

let incr b cnt = add b cnt 1 [@@inline]

let add_sum b s v =
  let i = sum_index s in
  b.f.(i) <- b.f.(i) +. v
[@@inline]

let count b cnt = b.c.(counter_index cnt)

let observe b h dt =
  let hi = histogram_index h in
  let k = (hi * n_buckets) + bucket_of dt in
  b.hb.(k) <- b.hb.(k) + 1;
  b.hs.(hi) <- b.hs.(hi) +. dt;
  if dt > b.hm.(hi) then b.hm.(hi) <- dt

let set_gauge l g v = Atomic.set l.gauges.(gauge_index g) v
let set_shared l cnt v =
  Mutex.protect l.lock (fun () -> l.shared.(counter_index cnt) <- v)

let on_snapshot l f = Mutex.protect l.lock (fun () -> l.polls <- f :: l.polls)

(* ---------------- per-node LP samples ---------------- *)

let node_lp b reason ~pivots ~seconds =
  let n = b.nl_n in
  if n = Array.length b.nl_pivots then begin
    let cap = Int.max 16 (2 * n) in
    let grow a z =
      let a' = Array.make cap z in
      Array.blit a 0 a' 0 n;
      a'
    in
    b.nl_reason <- grow b.nl_reason 0;
    b.nl_pivots <- grow b.nl_pivots 0;
    b.nl_seconds <- grow b.nl_seconds 0.
  end;
  b.nl_reason.(n) <- Trace.reason_index reason;
  b.nl_pivots.(n) <- pivots;
  b.nl_seconds.(n) <- seconds;
  b.nl_n <- n + 1

type node_lp_row = {
  nl_reason : string;
  nl_nodes : int;
  nl_pivots : int;
  nl_p50 : int;
  nl_p90 : int;
  nl_max : int;
  nl_seconds : float;
}

(* The one distribution function behind both tables: [iter f] calls
   [f code pivots seconds] once per sample, [code] a
   [Trace.reason_index]. One pass builds per-reason pivot lists and
   second sums; slot [Array.length Trace.close_reasons] is "all". *)
let distribution iter =
  let nr = Array.length Trace.close_reasons in
  let piv = Array.make (nr + 1) [] and secs = Array.make (nr + 1) 0. in
  let note r p s =
    piv.(r) <- p :: piv.(r);
    secs.(r) <- secs.(r) +. s
  in
  iter (fun r p s ->
      note r p s;
      note nr p s);
  let row r name =
    let a = Array.of_list piv.(r) in
    Array.sort Int.compare a;
    let n = Array.length a in
    let rank q =
      a.(Int.max 0 (Int.min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1)))
    in
    if n = 0 then None
    else
      Some
        {
          nl_reason = name;
          nl_nodes = n;
          nl_pivots = Array.fold_left ( + ) 0 a;
          nl_p50 = rank 0.5;
          nl_p90 = rank 0.9;
          nl_max = a.(n - 1);
          nl_seconds = secs.(r);
        }
  in
  Array.of_list
    (List.filter_map Fun.id
       (row nr "all"
       :: List.init nr (fun r -> row r (snd Trace.close_reasons.(r)))))

let node_lp_rows samples =
  distribution (fun f ->
      List.iter (fun (reason, p, s) -> f (Trace.reason_index reason) p s) samples)

let node_lp_table shards =
  distribution (fun f ->
      List.iter
        (fun (b : shard) ->
          for k = 0 to b.nl_n - 1 do
            f b.nl_reason.(k) b.nl_pivots.(k) b.nl_seconds.(k)
          done)
        shards)

(* ---------------- snapshots ---------------- *)

type hist = {
  h_count : int;
  h_sum : float;
  h_max : float;
  h_buckets : int array;
}

type snapshot = {
  s_ts : float;
  s_counters : int array;
  s_sums : float array;
  s_gauges : float array;
  s_hists : hist array;
}

let empty_hist =
  { h_count = 0; h_sum = 0.; h_max = 0.; h_buckets = Array.make n_buckets 0 }

let empty_snapshot =
  {
    s_ts = 0.;
    s_counters = Array.make n_counters 0;
    s_sums = Array.make n_sums 0.;
    s_gauges = Array.make n_gauges Float.nan;
    s_hists = Array.make n_hists empty_hist;
  }

(* Merging reads shard cells without synchronization: every cell has a
   single writer and is word-sized, so a read returns some committed
   value of that cell (no tearing) — a momentary view mid-run, the
   exact totals once the writers have joined. The bucket counts are
   the histogram's source of truth ([h_count] is their sum), so the
   count-equals-bucket-sum invariant holds even on racy reads. *)
let merge_with ~ts ~counters ~gauges shards =
  let sums = Array.make n_sums 0. in
  let hb = Array.make (n_hists * n_buckets) 0 in
  let hs = Array.make n_hists 0. and hm = Array.make n_hists 0. in
  List.iter
    (fun b ->
      for i = 0 to n_counters - 1 do
        counters.(i) <- counters.(i) + b.c.(i)
      done;
      for i = 0 to n_sums - 1 do
        sums.(i) <- sums.(i) +. b.f.(i)
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
  { s_ts = ts; s_counters = counters; s_sums = sums; s_gauges = gauges; s_hists = hists }

let merge shards =
  merge_with ~ts:0. ~counters:(Array.make n_counters 0)
    ~gauges:(Array.make n_gauges Float.nan) shards

let snapshot l =
  List.iter (fun f -> f ()) l.polls;
  merge_with ~ts:(Mono.elapsed_since l.created)
    ~counters:(Mutex.protect l.lock (fun () -> Array.copy l.shared))
    ~gauges:(Array.map Atomic.get l.gauges)
    l.shards

let counter_value s c = s.s_counters.(counter_index c)
let sum_value s x = s.s_sums.(sum_index x)
let gauge_value s g = s.s_gauges.(gauge_index g)
let hist_value s h = s.s_hists.(histogram_index h)
