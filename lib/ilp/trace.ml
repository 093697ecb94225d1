type lp_kind = Lp_primal | Lp_dual
type refactor_trigger = Rf_eta | Rf_numeric | Rf_residual

type close_reason =
  | Branched of { var : int; frac : float }
  | Integral
  | Infeasible_node
  | Bound_pruned
  | Hook_pruned
  | Prop_pruned
  | Unbounded_node
  | Numeric

type cert_verdict = Cert_certified | Cert_refuted | Cert_uncertifiable
type incumbent_source = Src_search | Src_hook

type event =
  | Node_open of { id : int; parent : int; depth : int; bound : float }
  | Node_close of { id : int; obj : float; reason : close_reason }
  | Lp_solve of {
      kind : lp_kind;
      pivots : int;
      flips : int;
      obj : float;
      primal_res : float;
      dual_res : float;
      dt : float;
    }
  | Lu_factor of { m : int; fill : int; probes : int; dt : float }
  | Lu_refactor of { trigger : refactor_trigger; etas : int }
  | Prop_run of { steps : int; fixings : int; conflict : bool }
  | Incumbent of { node : int; obj : float; source : incumbent_source }
  | Cert_check of { node : int; verdict : cert_verdict; kind : string; dt : float }
  | Span_begin of string
  | Span_end of string

type stamped = { seq : int; ts : float; ev : event }

let dummy_stamped = { seq = -1; ts = 0.; ev = Span_begin "" }

(* Single-writer growable ring. Only the registering domain appends;
   [collect] reads after that domain has quiesced, so no field needs to
   be atomic. The backing array length is always a power of two. *)
type buf = {
  bname : string;
  t0 : float;
  cap : int; (* max backing length; power of two *)
  mutable data : stamped array;
  mutable start : int; (* index of the oldest retained entry *)
  mutable len : int; (* retained entries *)
  mutable next_seq : int;
  mutable overwritten : int;
}

type writer = Null | W of buf

type live = {
  t0 : float;
  cap : int;
  lock : Mutex.t;
  mutable bufs : buf list; (* reverse registration order *)
  main_buf : buf;
}

type t = Disabled | On of live

let null_writer = Null
let active = function Null -> false | W _ -> true
let disabled = Disabled
let enabled = function Disabled -> false | On _ -> true

let pow2_ceil n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let initial_len = 1024

let new_buf ~t0 ~cap name =
  {
    bname = name;
    t0;
    cap;
    data = Array.make (min initial_len cap) dummy_stamped;
    start = 0;
    len = 0;
    next_seq = 0;
    overwritten = 0;
  }

let create ?(capacity = 1 lsl 20) () =
  let cap = pow2_ceil (max 16 capacity) in
  let t0 = Mono.now () in
  let main_buf = new_buf ~t0 ~cap "main" in
  On { t0; cap; lock = Mutex.create (); bufs = [ main_buf ]; main_buf }

let main = function Disabled -> Null | On l -> W l.main_buf

let make_writer t name =
  match t with
  | Disabled -> Null
  | On l ->
    let b = new_buf ~t0:l.t0 ~cap:l.cap name in
    Mutex.protect l.lock (fun () -> l.bufs <- b :: l.bufs);
    W b

let grow b =
  let old = b.data in
  let olen = Array.length old in
  let fresh = Array.make (olen * 2) dummy_stamped in
  for i = 0 to b.len - 1 do
    fresh.(i) <- old.((b.start + i) land (olen - 1))
  done;
  b.data <- fresh;
  b.start <- 0

let push b r =
  let alen = Array.length b.data in
  if b.len = alen then
    if alen < b.cap then grow b
    else begin
      (* full at capacity: drop the oldest *)
      b.start <- (b.start + 1) land (alen - 1);
      b.len <- b.len - 1;
      b.overwritten <- b.overwritten + 1
    end;
  let alen = Array.length b.data in
  b.data.((b.start + b.len) land (alen - 1)) <- r;
  b.len <- b.len + 1

let emit w ev =
  match w with
  | Null -> ()
  | W b ->
    let ts = Mono.now () -. b.t0 in
    push b { seq = b.next_seq; ts; ev };
    b.next_seq <- b.next_seq + 1

let snapshot_bufs l =
  (* registration order: 0 = main *)
  Mutex.protect l.lock (fun () -> Array.of_list (List.rev l.bufs))

let dropped = function
  | Disabled -> 0
  | On l ->
    Array.fold_left (fun acc b -> acc + b.overwritten) 0 (snapshot_bufs l)

type record = {
  dom : int;
  dname : string;
  seq : int;
  ts : float;
  ev : event;
}

let collect t =
  match t with
  | Disabled -> [||]
  | On l ->
    let bufs = snapshot_bufs l in
    let total = Array.fold_left (fun acc b -> acc + b.len) 0 bufs in
    let out = Array.make total { dom = 0; dname = ""; seq = 0; ts = 0.; ev = Span_begin "" } in
    let k = ref 0 in
    Array.iteri
      (fun dom b ->
        let alen = Array.length b.data in
        for i = 0 to b.len - 1 do
          let r = b.data.((b.start + i) land (alen - 1)) in
          out.(!k) <- { dom; dname = b.bname; seq = r.seq; ts = r.ts; ev = r.ev };
          incr k
        done)
      bufs;
    Array.sort
      (fun a b ->
        let c = Float.compare a.ts b.ts in
        if c <> 0 then c
        else
          let c = Int.compare a.dom b.dom in
          if c <> 0 then c else Int.compare a.seq b.seq)
      out;
    out

let lp_kind_name = function Lp_primal -> "primal" | Lp_dual -> "dual"

let trigger_name = function
  | Rf_eta -> "eta"
  | Rf_numeric -> "numeric"
  | Rf_residual -> "residual"

let cert_verdict_name = function
  | Cert_certified -> "certified"
  | Cert_refuted -> "refuted"
  | Cert_uncertifiable -> "uncertifiable"

let incumbent_source_name = function
  | Src_search -> "search"
  | Src_hook -> "hook"

let incumbent_source_of_name = function
  | "search" -> Some Src_search
  | "hook" -> Some Src_hook
  | _ -> None

let reason_name = function
  | Branched _ -> "branched"
  | Integral -> "integral"
  | Infeasible_node -> "infeasible"
  | Bound_pruned -> "bound"
  | Hook_pruned -> "hook"
  | Prop_pruned -> "propagation"
  | Unbounded_node -> "unbounded"
  | Numeric -> "numeric"

let pp_event ppf = function
  | Node_open { id; parent; depth; bound } ->
    Format.fprintf ppf "node_open id=%d parent=%d depth=%d bound=%g" id parent
      depth bound
  | Node_close { id; obj; reason } ->
    Format.fprintf ppf "node_close id=%d obj=%g reason=%s" id obj
      (reason_name reason)
  | Lp_solve { kind; pivots; flips; obj; primal_res; dual_res; dt } ->
    Format.fprintf ppf
      "lp_solve kind=%s pivots=%d flips=%d obj=%g primal_res=%.2e \
       dual_res=%.2e dt=%.3es"
      (lp_kind_name kind) pivots flips obj primal_res dual_res dt
  | Lu_factor { m; fill; probes; dt } ->
    Format.fprintf ppf "lu_factor m=%d fill=%d probes=%d dt=%.3es" m fill
      probes dt
  | Lu_refactor { trigger; etas } ->
    Format.fprintf ppf "lu_refactor trigger=%s etas=%d" (trigger_name trigger)
      etas
  | Prop_run { steps; fixings; conflict } ->
    Format.fprintf ppf "prop_run steps=%d fixings=%d conflict=%b" steps fixings
      conflict
  | Incumbent { node; obj; source } ->
    Format.fprintf ppf "incumbent node=%d obj=%g source=%s" node obj
      (incumbent_source_name source)
  | Cert_check { node; verdict; kind; dt } ->
    Format.fprintf ppf "cert_check node=%d verdict=%s kind=%s dt=%.3es" node
      (cert_verdict_name verdict) kind dt
  | Span_begin name -> Format.fprintf ppf "span_begin %s" name
  | Span_end name -> Format.fprintf ppf "span_end %s" name
