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
  | Hook_give_up of { node : int; what : string }
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

(* Each enum's one (constructor, name) table, in declaration order:
   the names and their inverse are both read off it. *)
let lp_kinds = [| (Lp_primal, "primal"); (Lp_dual, "dual") |]

let triggers =
  [| (Rf_eta, "eta"); (Rf_numeric, "numeric"); (Rf_residual, "residual") |]

let close_reasons =
  [|
    (Branched { var = 0; frac = 0. }, "branched");
    (Integral, "integral");
    (Infeasible_node, "infeasible");
    (Bound_pruned, "bound");
    (Hook_pruned, "hook");
    (Prop_pruned, "propagation");
    (Unbounded_node, "unbounded");
    (Numeric, "numeric");
  |]

let cert_verdicts =
  [|
    (Cert_certified, "certified");
    (Cert_refuted, "refuted");
    (Cert_uncertifiable, "uncertifiable");
  |]

let incumbent_sources = [| (Src_search, "search"); (Src_hook, "hook") |]

(* Position of [x] in [table]; only [Branched] carries a payload, so a
   structural match finds every other constructor. *)
let index table x =
  let rec go i = if fst table.(i) = x then i else go (i + 1) in
  go 0

let reason_index = function Branched _ -> 0 | r -> index close_reasons r
let lp_kind_name k = snd lp_kinds.(index lp_kinds k)
let trigger_name t = snd triggers.(index triggers t)
let reason_name r = snd close_reasons.(reason_index r)
let cert_verdict_name v = snd cert_verdicts.(index cert_verdicts v)
let incumbent_source_name s = snd incumbent_sources.(index incumbent_sources s)

let of_name table name =
  Array.find_map (fun (x, n) -> if String.equal n name then Some x else None) table

type field =
  | Int of int
  | Float of float
  | Nullable of float
  | Str of string
  | Bool of bool

let fields = function
  | Node_open { id; parent; depth; bound } ->
    ( "node_open",
      [
        ("id", Int id); ("parent", Int parent); ("depth", Int depth); ("bound", Float bound);
      ] )
  | Node_close { id; obj; reason } ->
    ( "node_close",
      [ ("id", Int id); ("obj", Nullable obj); ("reason", Str (reason_name reason)) ]
      @
      match reason with
      | Branched { var; frac } -> [ ("var", Int var); ("frac", Float frac) ]
      | _ -> [] )
  | Lp_solve { kind; pivots; flips; obj; primal_res; dual_res; dt } ->
    ( "lp_solve",
      [
        ("kind", Str (lp_kind_name kind));
        ("pivots", Int pivots);
        ("flips", Int flips);
        ("obj", Nullable obj);
        ("primal_res", Float primal_res);
        ("dual_res", Float dual_res);
        ("dt", Float dt);
      ] )
  | Lu_factor { m; fill; probes; dt } ->
    ( "lu_factor",
      [ ("m", Int m); ("fill", Int fill); ("probes", Int probes); ("dt", Float dt) ]
    )
  | Lu_refactor { trigger; etas } ->
    ("lu_refactor", [ ("trigger", Str (trigger_name trigger)); ("etas", Int etas) ])
  | Prop_run { steps; fixings; conflict } ->
    ( "prop_run",
      [ ("steps", Int steps); ("fixings", Int fixings); ("conflict", Bool conflict) ] )
  | Incumbent { node; obj; source } ->
    ( "incumbent",
      [
        ("node", Int node);
        ("obj", Float obj);
        ("source", Str (incumbent_source_name source));
      ] )
  | Cert_check { node; verdict; kind; dt } ->
    ( "cert_check",
      [
        ("node", Int node);
        ("verdict", Str (cert_verdict_name verdict));
        ("kind", Str kind);
        ("dt", Float dt);
      ] )
  | Hook_give_up { node; what } ->
    ("hook_give_up", [ ("node", Int node); ("what", Str what) ])
  | Span_begin name -> ("span_begin", [ ("name", Str name) ])
  | Span_end name -> ("span_end", [ ("name", Str name) ])
