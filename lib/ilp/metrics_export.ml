(* Numbers must round-trip textually: Json prints floats with enough
   digits, and nan/inf gauges become null (JSON has no non-finite
   literals). *)
let num_or_null v = if Float.is_finite v then Json.Num v else Json.Null

type instrument =
  | Counter of Metrics.counter
  | Sum of Metrics.sum
  | Gauge of Metrics.gauge
  | Histogram of Metrics.histogram

(* The [counters], [sums] and [hists] members of the instruments in
   [only] (default: all), in declaration order. *)
let cells ?only s =
  let pick wrap all =
    Array.to_list all
    |> List.filter (fun x -> match only with None -> true | Some l -> List.mem (wrap x) l)
  in
  let obj name cell wrap all = (name, Json.Obj (List.map cell (pick wrap all))) in
  let int n = Json.Num (float_of_int n) in
  ( obj "counters"
      (fun c -> (Metrics.counter_name c, int (Metrics.counter_value s c)))
      (fun c -> Counter c) Metrics.all_counters,
    obj "sums"
      (fun x -> (Metrics.sum_name x, Json.Num (Metrics.sum_value s x)))
      (fun x -> Sum x) Metrics.all_sums,
    obj "hists"
      (fun h ->
        let v = Metrics.hist_value s h in
        ( Metrics.histogram_name h,
          Json.Obj
            [
              ("count", int v.Metrics.h_count);
              ("sum", Json.Num v.Metrics.h_sum);
              ("max", Json.Num v.Metrics.h_max);
              ("buckets", Json.Arr (Array.to_list (Array.map int v.Metrics.h_buckets)));
            ] ))
      (fun h -> Histogram h) Metrics.all_histograms )

let cells_to_json ?only s =
  let counters, sums, hists = cells ?only s in
  [ counters; sums; hists ]

let snapshot_to_json (s : Metrics.snapshot) =
  let counters, sums, hists = cells s in
  let gauges =
    List.map
      (fun g -> (Metrics.gauge_name g, num_or_null (Metrics.gauge_value s g)))
      (Array.to_list Metrics.all_gauges)
  in
  Json.Obj [ ("ts", Json.Num s.Metrics.s_ts); counters; sums; ("gauges", Json.Obj gauges); hists ]

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
(* Counter report                                                      *)

(* One [key=value] of the report: the instruments it reads and how it
   renders them. A report limited to some instruments shows the fields
   that read nothing else. *)
type field = { key : string; reads : instrument list; show : Metrics.snapshot -> string }

let secs = Printf.sprintf "%.3fs"
let field key reads show = { key; reads; show }

let tally key c =
  field key [ Counter c ] (fun s -> string_of_int (Metrics.counter_value s c))

let timing key x = field key [ Sum x ] (fun s -> secs (Metrics.sum_value s x))
let hist key h part = field key [ Histogram h ] (fun s -> part (Metrics.hist_value s h))
let factor = hist "factor" Metrics.H_factor_seconds (fun v -> secs v.Metrics.h_sum)

(* The [lp-stats:] line. *)
let lp_fields =
  Metrics.
    [
      tally "factorizations" C_lu_factorizations;
      field "fill" [ Gauge G_lu_fill ] (fun s ->
          let v = gauge_value s G_lu_fill in
          if Float.is_finite v then Printf.sprintf "%.0f" v else "-");
      tally "etas" C_lu_etas;
      (let cs = [ C_lu_refactor_eta; C_lu_refactor_numeric; C_lu_refactor_residual ] in
       field "refactors(eta/numeric/residual)"
         (List.map (fun c -> Counter c) cs)
         (fun s ->
           String.concat "/" (List.map (fun c -> string_of_int (counter_value s c)) cs)));
      tally "ray-infeasible" C_lp_ray_infeasible;
      factor;
      timing "ftran" S_ftran_seconds;
      timing "btran" S_btran_seconds;
      timing "update" S_update_seconds;
      timing "chuzr" S_chuzr_seconds;
      timing "price" S_price_seconds;
      tally "pivots" C_lp_pivots;
      tally "flips" C_lp_bound_flips;
      tally "dual-stalls" C_lp_dual_stalls;
      tally "primal-restarts" C_lp_primal_restarts;
      tally "cold-primal" C_lp_cold_primal;
      tally "singular-restarts" C_lp_singular_restarts;
      tally "installs" C_lp_basis_installs;
      tally "install-fallbacks" C_lp_install_fallbacks;
      field "gc(minor/major)" [ Sum S_gc_minor_words; Sum S_gc_major_words ] (fun s ->
          Printf.sprintf "%.0f/%.0fw" (sum_value s S_gc_minor_words)
            (sum_value s S_gc_major_words));
      tally "compactions" C_gc_compactions;
    ]

(* The [deductions:] table. *)
let deduction_fields =
  Metrics.
    [
      tally "rc-fixed" C_rc_fixed;
      tally "prop-fixings" C_prop_fixings;
      tally "prop-prunes" C_prop_prunes;
      timing "prop-time" S_prop_seconds;
      tally "hook-calls" C_hook_calls;
      tally "hook-give-ups" C_hook_give_ups;
      tally "hook-pre-lp" C_hook_pre_lp;
      timing "hook-time" S_hook_seconds;
    ]

(* The [certification:] line, before the root certificate. *)
let certification_fields =
  Metrics.
    [
      tally "checked" C_cert_checked;
      tally "certified" C_certified_nodes;
      tally "refuted" C_cert_refuted;
      tally "uncertifiable" C_cert_uncertifiable;
      timing "time" S_cert_seconds;
    ]

let reads fields = List.concat_map (fun f -> f.reads) fields
let certification = reads certification_fields

(* The [counters:] table: every counter and sum the sections above leave
   out, keyed by its codec name, and each histogram's count, sum (but
   [factor=]'s) and maximum. *)
let counter_fields =
  let key name = String.map (function '_' -> '-' | ch -> ch) name in
  let shown = reads (lp_fields @ deduction_fields @ certification_fields) in
  let rest wrap all mk name =
    Array.to_list all
    |> List.filter_map (fun x ->
           if List.mem (wrap x) shown then None else Some (mk (key (name x)) x))
  in
  rest (fun c -> Counter c) Metrics.all_counters tally Metrics.counter_name
  @ rest (fun x -> Sum x) Metrics.all_sums timing Metrics.sum_name
  @ List.concat_map
      (fun h ->
        let part name show = hist (key (Metrics.histogram_name h ^ "_" ^ name)) h show in
        [ part "count" (fun v -> string_of_int v.Metrics.h_count) ]
        @ (if List.mem (Histogram h) factor.reads then []
           else [ part "sum" (fun v -> secs v.Metrics.h_sum) ])
        @ [ part "max" (fun v -> Printf.sprintf "%.6fs" v.Metrics.h_max) ])
      (Array.to_list Metrics.all_histograms)

let pp_fields fields ppf s =
  List.iteri
    (fun i f -> Format.fprintf ppf "%s%s=%s" (if i > 0 then " " else "") f.key (f.show s))
    fields

let pp_certification ?root ppf s =
  pp_fields certification_fields ppf s;
  Option.iter (Format.fprintf ppf " root=%a" Certify.pp) root

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
               secs r.nl_seconds;
             ])
           (Array.to_list rows))
  end

(* Steal/handoff rates are per second of the search wall clock, and
   idle% its share spent blocked on the work pool. *)
let pp_workers ppf (elapsed, workers) =
  if Array.length workers > 0 then begin
    let per_s v = if elapsed > 0. then v /. elapsed else 0. in
    Format.pp_print_string ppf "workers:\n";
    pp_table ppf
      ([ "id"; "nodes"; "incumbents"; "steals"; "steals/s"; "handoffs";
         "handoffs/s"; "idle"; "idle%"; "pivots" ]
      :: List.mapi
           (fun i w ->
             let c x = Metrics.counter_value w x in
             let idle = Metrics.sum_value w Metrics.S_pool_idle_seconds in
             [
               string_of_int i;
               string_of_int (c Metrics.C_nodes);
               string_of_int (c Metrics.C_incumbents);
               string_of_int (c Metrics.C_pool_steals);
               Printf.sprintf "%.1f" (per_s (float_of_int (c Metrics.C_pool_steals)));
               string_of_int (c Metrics.C_pool_handoffs);
               Printf.sprintf "%.1f" (per_s (float_of_int (c Metrics.C_pool_handoffs)));
               secs idle;
               Printf.sprintf "%.1f" (100. *. per_s idle);
               string_of_int (c Metrics.C_lp_pivots);
             ])
           (Array.to_list workers))
  end

let pp_report ?only ?certified ?describe_row ?node_lps ?workers ppf s =
  let fields l =
    match only with
    | None -> l
    | Some only -> List.filter (fun f -> List.for_all (fun i -> List.mem i only) f.reads) l
  in
  let section title l pp =
    match fields l with [] -> () | fs -> Format.fprintf ppf "%s:%a" title pp fs
  in
  let root = Option.join certified in
  if certified <> None || Metrics.counter_value s Metrics.C_cert_checked > 0 then
    section "certification" certification_fields (fun ppf _ ->
        Format.fprintf ppf " %a\n" (pp_certification ?root) s;
        match (root, describe_row) with
        | Some { Certify.detail = Certify.Farkas_proof { support; _ }; _ }, Some name ->
          List.iter (fun i -> Format.fprintf ppf "  %s\n" (name i)) support
        | _ -> ());
  section "lp-stats" lp_fields (fun ppf fs -> Format.fprintf ppf " %a\n" (pp_fields fs) s);
  let table ppf fs =
    Format.pp_print_string ppf "\n";
    pp_table ppf ([ "counter"; "total" ] :: List.map (fun f -> [ f.key; f.show s ]) fs)
  in
  section "deductions" deduction_fields table;
  section "counters" counter_fields table;
  Option.iter (pp_node_lps ppf) node_lps;
  Option.iter (pp_workers ppf) workers

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

  (* What only a snapshot stream knows: its length and window, the
     gauges (the LU fill is in the report's [lp-stats:] line) and rates
     per second of the run; the counters follow in the report's
     layout. *)
  let pp ppf t =
    let s = t.final in
    let dt = s.Metrics.s_ts in
    let rate c =
      let n = float_of_int (Metrics.counter_value s c) in
      if dt > 0. then n /. dt else 0.
    in
    Format.fprintf ppf "snapshots      %d over %.3fs (last at %.3fs)\n"
      t.snapshots t.duration dt;
    Format.fprintf ppf "gauges        ";
    Array.iter
      (fun g ->
        if g <> Metrics.G_lu_fill then
          let v = Metrics.gauge_value s g in
          Format.fprintf ppf " %s=%s" (Metrics.gauge_name g)
            (if Float.is_finite v then Printf.sprintf "%g" v else "-"))
      Metrics.all_gauges;
    Format.fprintf ppf "\nrates          nodes=%.1f/s pivots=%.1f/s\n"
      (rate Metrics.C_nodes) (rate Metrics.C_lp_pivots);
    pp_report ppf s

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
