(* Numbers must round-trip textually: Json prints floats with enough
   digits, and nan/inf gauges become null (JSON has no non-finite
   literals). *)
let num_or_null v = if Float.is_finite v then Json.Num v else Json.Null

let snapshot_to_json (s : Metrics.snapshot) =
  let counters =
    Array.to_list
      (Array.map
         (fun c ->
           ( Metrics.counter_name c,
             Json.Num (float_of_int (Metrics.counter_value s c)) ))
         Metrics.all_counters)
  in
  let sums =
    Array.to_list
      (Array.map
         (fun x -> (Metrics.sum_name x, Json.Num (Metrics.sum_value s x)))
         Metrics.all_sums)
  in
  let gauges =
    Array.to_list
      (Array.map
         (fun g -> (Metrics.gauge_name g, num_or_null (Metrics.gauge_value s g)))
         Metrics.all_gauges)
  in
  let hists =
    Array.to_list
      (Array.map
         (fun h ->
           let v = Metrics.hist_value s h in
           ( Metrics.histogram_name h,
             Json.Obj
               [
                 ("count", Json.Num (float_of_int v.Metrics.h_count));
                 ("sum", Json.Num v.Metrics.h_sum);
                 ("max", Json.Num v.Metrics.h_max);
                 ( "buckets",
                   Json.Arr
                     (Array.to_list
                        (Array.map
                           (fun n -> Json.Num (float_of_int n))
                           v.Metrics.h_buckets)) );
               ] ))
         Metrics.all_histograms)
  in
  Json.Obj
    [
      ("ts", Json.Num s.Metrics.s_ts);
      ("counters", Json.Obj counters);
      ("sums", Json.Obj sums);
      ("gauges", Json.Obj gauges);
      ("hists", Json.Obj hists);
    ]

let ( let* ) = Result.bind

let obj_bindings what = function
  | Json.Obj kvs -> Ok kvs
  | _ -> Error (Printf.sprintf "%s: expected an object" what)

let snapshot_of_json j =
  let* top = obj_bindings "snapshot" j in
  let* ts =
    match Json.member "ts" j with
    | Some (Json.Num v) -> Ok v
    | _ -> Error "snapshot: missing numeric ts"
  in
  let e = Metrics.empty_snapshot in
  let counters = Array.copy e.Metrics.s_counters
  and sums = Array.copy e.Metrics.s_sums
  and gauges = Array.copy e.Metrics.s_gauges
  and hists = Array.copy e.Metrics.s_hists in
  (* One object of named cells: [decode] turns a value into the cell's
     contents, [None] when it has the wrong shape. *)
  let cells key of_name index arr decode expected =
    match List.assoc_opt key top with
    | None -> Ok ()
    | Some c ->
      let* kvs = obj_bindings key c in
      List.fold_left
        (fun acc (k, v) ->
          let* () = acc in
          match (of_name k, decode v) with
          | None, _ -> Error (Printf.sprintf "%s: unknown name %S" key k)
          | Some _, None -> Error (Printf.sprintf "%s %S: expected %s" key k expected)
          | Some x, Some d ->
            arr.(index x) <- d;
            Ok ())
        (Ok ()) kvs
  in
  let* () =
    cells "counters" Metrics.counter_of_name Metrics.counter_index counters
      Json.int "an integer"
  in
  let* () =
    cells "sums" Metrics.sum_of_name Metrics.sum_index sums Json.num "a number"
  in
  let* () =
    cells "gauges" Metrics.gauge_of_name Metrics.gauge_index gauges
      (function Json.Null -> Some Float.nan | v -> Json.num v)
      "number or null"
  in
  let* () =
    match List.assoc_opt "hists" top with
    | None -> Ok ()
    | Some h ->
      let* kvs = obj_bindings "hists" h in
      List.fold_left
        (fun acc (k, v) ->
          let* () = acc in
          match Metrics.histogram_of_name k with
          | None -> Error (Printf.sprintf "unknown histogram %S" k)
          | Some hh ->
            let count =
              Option.bind (Json.member "count" v) Json.int
              |> Option.value ~default:0
            and sum =
              Option.bind (Json.member "sum" v) Json.num
              |> Option.value ~default:0.
            and hmax =
              Option.bind (Json.member "max" v) Json.num
              |> Option.value ~default:0.
            in
            let* buckets =
              match Json.member "buckets" v with
              | Some (Json.Arr l) when List.length l = Metrics.n_buckets ->
                List.fold_left
                  (fun acc b ->
                    let* acc = acc in
                    match Json.int b with
                    | Some n -> Ok (n :: acc)
                    | None ->
                      Error
                        (Printf.sprintf "histogram %S: non-integer bucket" k))
                  (Ok []) l
                |> Result.map (fun l -> Array.of_list (List.rev l))
              | _ ->
                Error
                  (Printf.sprintf "histogram %S: expected %d buckets" k
                     Metrics.n_buckets)
            in
            if Array.fold_left ( + ) 0 buckets <> count then
              Error
                (Printf.sprintf "histogram %S: count %d <> bucket sum" k count)
            else begin
              hists.(Metrics.histogram_index hh) <-
                {
                  Metrics.h_count = count;
                  h_sum = sum;
                  h_max = hmax;
                  h_buckets = buckets;
                };
              Ok ()
            end)
        (Ok ()) kvs
  in
  Ok
    {
      Metrics.s_ts = ts;
      s_counters = counters;
      s_sums = sums;
      s_gauges = gauges;
      s_hists = hists;
    }

let monotonize (prev : Metrics.snapshot) (cur : Metrics.snapshot) =
  let counters =
    Array.mapi
      (fun i v -> Int.max v prev.Metrics.s_counters.(i))
      cur.Metrics.s_counters
  and sums =
    Array.mapi
      (fun i v -> Float.max v prev.Metrics.s_sums.(i))
      cur.Metrics.s_sums
  in
  let hists =
    Array.mapi
      (fun i (h : Metrics.hist) ->
        let p = prev.Metrics.s_hists.(i) in
        let buckets =
          Array.mapi
            (fun k n -> Int.max n p.Metrics.h_buckets.(k))
            h.Metrics.h_buckets
        in
        {
          Metrics.h_count = Array.fold_left ( + ) 0 buckets;
          h_sum = Float.max h.Metrics.h_sum p.Metrics.h_sum;
          h_max = Float.max h.Metrics.h_max p.Metrics.h_max;
          h_buckets = buckets;
        })
      cur.Metrics.s_hists
  in
  {
    cur with
    Metrics.s_ts = Float.max cur.Metrics.s_ts prev.Metrics.s_ts;
    s_counters = counters;
    s_sums = sums;
    s_hists = hists;
  }

let write_jsonl oc s =
  output_string oc (Json.to_string (snapshot_to_json s));
  output_char oc '\n'

let load path = Json.load_lines path snapshot_of_json

let check snaps =
  let* () = if snaps = [] then Error "empty snapshot stream" else Ok () in
  let rec go i prev = function
    | [] -> Ok ()
    | (s : Metrics.snapshot) :: rest ->
      let err fmt = Printf.ksprintf (fun m -> Error (Printf.sprintf "snapshot %d: %s" i m)) fmt in
      let* () =
        Array.fold_left
          (fun acc (h : Metrics.hist) ->
            let* () = acc in
            if Array.fold_left ( + ) 0 h.Metrics.h_buckets <> h.Metrics.h_count
            then err "histogram count differs from its bucket sum"
            else if h.Metrics.h_sum < 0. || h.Metrics.h_max < 0. then
              err "negative histogram sum or max"
            else Ok ())
          (Ok ()) s.Metrics.s_hists
      in
      let* () =
        match prev with
        | None -> Ok ()
        | Some (p : Metrics.snapshot) ->
          if s.Metrics.s_ts < p.Metrics.s_ts then
            err "timestamp decreased (%g after %g)" s.Metrics.s_ts p.Metrics.s_ts
          else
            Array.fold_left
              (fun acc c ->
                let* () = acc in
                let v = Metrics.counter_value s c
                and pv = Metrics.counter_value p c in
                if v < pv then
                  err "counter %s decreased (%d after %d)"
                    (Metrics.counter_name c) v pv
                else Ok ())
              (Ok ()) Metrics.all_counters
      in
      let* () =
        match prev with
        | None -> Ok ()
        | Some p ->
          Array.fold_left
            (fun acc x ->
              let* () = acc in
              let v = Metrics.sum_value s x and pv = Metrics.sum_value p x in
              if v < pv then
                err "sum %s decreased (%g after %g)" (Metrics.sum_name x) v pv
              else Ok ())
            (Ok ()) Metrics.all_sums
      in
      go (i + 1) (Some s) rest
  in
  go 1 None snaps

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                          *)

let prom_name kind name = Printf.sprintf "tpart_%s%s" name kind

let prom_float v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let prometheus (s : Metrics.snapshot) =
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string b l; Buffer.add_char b '\n') fmt in
  Array.iter
    (fun c ->
      let n = prom_name "_total" (Metrics.counter_name c) in
      line "# HELP %s Solver counter %s." n (Metrics.counter_name c);
      line "# TYPE %s counter" n;
      line "%s %d" n (Metrics.counter_value s c))
    Metrics.all_counters;
  Array.iter
    (fun x ->
      let n = prom_name "_total" (Metrics.sum_name x) in
      line "# HELP %s Solver sum %s." n (Metrics.sum_name x);
      line "# TYPE %s counter" n;
      line "%s %s" n (prom_float (Metrics.sum_value s x)))
    Metrics.all_sums;
  Array.iter
    (fun g ->
      let v = Metrics.gauge_value s g in
      if Float.is_finite v then begin
        let n = prom_name "" (Metrics.gauge_name g) in
        line "# HELP %s Solver gauge %s." n (Metrics.gauge_name g);
        line "# TYPE %s gauge" n;
        line "%s %s" n (prom_float v)
      end)
    Metrics.all_gauges;
  Array.iter
    (fun h ->
      let v = Metrics.hist_value s h in
      let n = prom_name "" (Metrics.histogram_name h) in
      line "# HELP %s Solver histogram %s." n (Metrics.histogram_name h);
      line "# TYPE %s histogram" n;
      let cum = ref 0 in
      for i = 0 to Metrics.n_buckets - 1 do
        cum := !cum + v.Metrics.h_buckets.(i);
        let le = Metrics.bucket_le i in
        let le_s = if Float.is_finite le then prom_float le else "+Inf" in
        line "%s_bucket{le=\"%s\"} %d" n le_s !cum
      done;
      line "%s_sum %s" n (prom_float v.Metrics.h_sum);
      line "%s_count %d" n v.Metrics.h_count)
    Metrics.all_histograms;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Text tables                                                         *)

let pp_table ppf rows =
  match rows with
  | [] -> ()
  | header :: _ ->
    let width = Array.make (List.length header) 0 in
    List.iter
      (List.iteri (fun i c -> width.(i) <- Int.max width.(i) (String.length c)))
      rows;
    List.iter
      (fun row ->
        List.iteri
          (fun i c ->
            if i = 0 then Format.fprintf ppf "  %-*s" width.(i) c
            else Format.fprintf ppf "  %*s" width.(i) c)
          row;
        Format.pp_print_string ppf "\n")
      rows

let pp_node_lps ppf (rows : Metrics.node_lp_row array) =
  if Array.length rows > 0 then begin
    Format.pp_print_string ppf "node-lps:\n";
    pp_table ppf
      ([ "reason"; "nodes"; "pivots"; "p50"; "p90"; "max"; "lp-time" ]
      :: List.map
           (fun (r : Metrics.node_lp_row) ->
             [
               r.nl_reason;
               string_of_int r.nl_nodes;
               string_of_int r.nl_pivots;
               string_of_int r.nl_p50;
               string_of_int r.nl_p90;
               string_of_int r.nl_max;
               Printf.sprintf "%.3fs" r.nl_seconds;
             ])
           (Array.to_list rows))
  end

let node_lps_to_json (rows : Metrics.node_lp_row array) =
  let n x = Json.Num (float_of_int x) in
  Json.Arr
    (List.map
       (fun (r : Metrics.node_lp_row) ->
         Json.Obj
           [
             ("reason", Json.Str r.nl_reason);
             ("nodes", n r.nl_nodes);
             ("pivots", n r.nl_pivots);
             ("p50", n r.nl_p50);
             ("p90", n r.nl_p90);
             ("max", n r.nl_max);
             ("seconds", Json.Num r.nl_seconds);
           ])
       (Array.to_list rows))

(* ------------------------------------------------------------------ *)
(* Aggregate summary                                                   *)

module Summary = struct
  type t = {
    snapshots : int;
    duration : float;
    final : Metrics.snapshot;
  }

  let of_snapshots = function
    | [] -> Error "empty snapshot stream"
    | (first : Metrics.snapshot) :: _ as snaps ->
      let final = List.nth snaps (List.length snaps - 1) in
      Ok
        {
          snapshots = List.length snaps;
          duration = final.Metrics.s_ts -. first.Metrics.s_ts;
          final;
        }

  let rate n dt = if dt > 0. then float_of_int n /. dt else 0.

  let ratio_pct a b =
    if b = 0 then 0. else 100. *. float_of_int a /. float_of_int b

  let pp ppf t =
    let s = t.final in
    let c x = Metrics.counter_value s x in
    let g x = Metrics.gauge_value s x in
    let fin v = if Float.is_finite v then Printf.sprintf "%g" v else "-" in
    let dt = s.Metrics.s_ts in
    Format.fprintf ppf "@[<v>";
    Format.fprintf ppf "snapshots      %d over %.3fs (last at %.3fs)@,"
      t.snapshots t.duration dt;
    Format.fprintf ppf "search         nodes=%d (%.1f/s) incumbents=%d certified=%d@,"
      (c Metrics.C_nodes)
      (rate (c Metrics.C_nodes) dt)
      (c Metrics.C_incumbents) (c Metrics.C_certified_nodes);
    Format.fprintf ppf "bounds         best_bound=%s incumbent=%s open=%s workers=%s@,"
      (fin (g Metrics.G_best_bound))
      (fin (g Metrics.G_incumbent_obj))
      (fin (g Metrics.G_open_nodes))
      (fin (g Metrics.G_workers));
    Format.fprintf ppf "lp             solves=%d pivots=%d (%.1f/s) flips=%d@,"
      (c Metrics.C_lp_solves) (c Metrics.C_lp_pivots)
      (rate (c Metrics.C_lp_pivots) dt)
      (c Metrics.C_lp_bound_flips);
    Format.fprintf ppf
      "fallbacks      dual_stalls=%d primal_restarts=%d cold_primal=%d \
       singular_restarts=%d install_fallbacks=%d hook_give_ups=%d@,"
      (c Metrics.C_lp_dual_stalls) (c Metrics.C_lp_primal_restarts)
      (c Metrics.C_lp_cold_primal) (c Metrics.C_lp_singular_restarts)
      (c Metrics.C_lp_install_fallbacks) (c Metrics.C_hook_give_ups);
    Format.fprintf ppf "hyper-sparse   ftran=%d/%d (%.1f%%) btran=%d/%d (%.1f%%)@,"
      (c Metrics.C_ftran_hyper) (c Metrics.C_ftran_solves)
      (ratio_pct (c Metrics.C_ftran_hyper) (c Metrics.C_ftran_solves))
      (c Metrics.C_btran_hyper) (c Metrics.C_btran_solves)
      (ratio_pct (c Metrics.C_btran_hyper) (c Metrics.C_btran_solves));
    Format.fprintf ppf "lu             factorizations=%d refactorizations=%d probes=%d@,"
      (c Metrics.C_lu_factorizations)
      (c Metrics.C_lu_refactor_eta + c Metrics.C_lu_refactor_numeric
      + c Metrics.C_lu_refactor_residual)
      (c Metrics.C_lu_probes);
    Format.fprintf ppf
      "deductions     prop_runs=%d prop_fixings=%d hook_pre_lp=%d@,"
      (c Metrics.C_prop_runs) (c Metrics.C_prop_fixings)
      (c Metrics.C_hook_pre_lp);
    Format.fprintf ppf "pool           steals=%d handoffs=%d hungry_polls=%d depth=%s@,"
      (c Metrics.C_pool_steals) (c Metrics.C_pool_handoffs)
      (c Metrics.C_pool_hungry_polls)
      (fin (g Metrics.G_pool_depth));
    Array.iter
      (fun h ->
        let v = Metrics.hist_value s h in
        Format.fprintf ppf "%-14s count=%d sum=%.3fs max=%.3fs mean=%.6fs@,"
          (Metrics.histogram_name h) v.Metrics.h_count v.Metrics.h_sum
          v.Metrics.h_max
          (if v.Metrics.h_count = 0 then 0.
           else v.Metrics.h_sum /. float_of_int v.Metrics.h_count))
      Metrics.all_histograms;
    (let dropped = c Metrics.C_trace_dropped_events in
     if dropped > 0 then
       Format.fprintf ppf
         "WARNING: %d trace events dropped (ring buffers wrapped)@," dropped);
    Format.fprintf ppf "@]"

  let to_json t =
    Json.Obj
      [
        ("snapshots", Json.Num (float_of_int t.snapshots));
        ("duration", Json.Num t.duration);
        ("final", snapshot_to_json t.final);
      ]
end

(* ------------------------------------------------------------------ *)
(* Sampler                                                             *)

(* The sampler runs on a systhread of the calling domain, NOT on a
   fresh domain. An extra domain — even one asleep in [Unix.sleepf] —
   must be interrupted at every stop-the-world minor collection, which
   measures at tens of percent of wall-clock on an allocation-heavy
   sequential solve. A sleeping systhread holds no runtime lock and
   costs nothing until it wakes to take the (microsecond-scale)
   snapshot. *)
type sampler = {
  sm : Metrics.t;
  s_stop : bool Atomic.t;
  s_thread : Thread.t;
}

let start ?(interval = 1.0) m ~on_sample =
  let interval = Float.max 0.01 interval in
  let stop_flag = Atomic.make false in
  let thread =
    Thread.create
      (fun () ->
        let rec loop () =
          (* chunked sleep: [stop] must not wait a full interval *)
          let slept = ref 0. in
          while (not (Atomic.get stop_flag)) && !slept < interval do
            let d = Float.min 0.05 (interval -. !slept) in
            Thread.delay d;
            slept := !slept +. d
          done;
          if not (Atomic.get stop_flag) then begin
            on_sample (Metrics.snapshot m);
            loop ()
          end
        in
        loop ())
      ()
  in
  { sm = m; s_stop = stop_flag; s_thread = thread }

let stop s =
  Atomic.set s.s_stop true;
  Thread.join s.s_thread;
  Metrics.snapshot s.sm
