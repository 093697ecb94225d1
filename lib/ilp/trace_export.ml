(* ------------------------------------------------------------------ *)
(* JSONL codec                                                         *)
(* ------------------------------------------------------------------ *)

let num v = Json.Num v
let inum i = Json.Num (float_of_int i)

let field_json = function
  | Trace.Int i -> inum i
  | Float f -> num f
  | Nullable f -> if Float.is_nan f then Json.Null else num f
  | Str s -> Json.Str s
  | Bool b -> Json.Bool b

let payload fields = List.map (fun (k, f) -> (k, field_json f)) fields

let record_to_json (r : Trace.record) =
  let ty, fields = Trace.fields r.ev in
  Json.Obj
    ([
       ("ts", num r.ts);
       ("dom", inum r.dom);
       ("w", Json.Str r.dname);
       ("seq", inum r.seq);
       ("type", Json.Str ty);
     ]
    @ payload fields)

(* Field accessors that name the offending field on failure. *)
exception Bad of string

let req_num j k =
  match Json.member k j with
  | Some v -> (
    match Json.num v with
    | Some f -> f
    | None -> raise (Bad (Printf.sprintf "field %S is not a number" k)))
  | None -> raise (Bad (Printf.sprintf "missing field %S" k))

let req_int j k =
  let f = req_num j k in
  if Float.is_integer f then int_of_float f
  else raise (Bad (Printf.sprintf "field %S is not an integer" k))

(* Fields added after a schema's first release decode with a default so
   traces recorded by older builds stay readable. *)
let opt_int j k ~default =
  match Json.member k j with None | Some Json.Null -> default | Some _ -> req_int j k

let req_str j k =
  match Option.bind (Json.member k j) Json.str with
  | Some s -> s
  | None -> raise (Bad (Printf.sprintf "missing string field %S" k))

let req_bool j k =
  match Option.bind (Json.member k j) Json.bool with
  | Some b -> b
  | None -> raise (Bad (Printf.sprintf "missing boolean field %S" k))

(* [obj] may legitimately be null (node pruned before its LP ran). *)
let nullable_num j k =
  match Json.member k j with
  | None | Some Json.Null -> Float.nan
  | Some _ -> req_num j k

(* A field holding a name from one of {!Trace}'s enum tables. *)
let req_enum table j k =
  let s = req_str j k in
  match Trace.of_name table s with
  | Some x -> x
  | None ->
    raise
      (Bad
         (Printf.sprintf "field %S: unknown name %S (expected one of %s)" k s
            (String.concat ", " (Array.to_list (Array.map snd table)))))

let event_of_json j =
  match req_str j "type" with
  | "node_open" ->
    Trace.Node_open
      {
        id = req_int j "id";
        parent = req_int j "parent";
        depth = req_int j "depth";
        bound = req_num j "bound";
      }
  | "node_close" ->
    Node_close
      {
        id = req_int j "id";
        obj = nullable_num j "obj";
        reason =
          (match req_enum Trace.close_reasons j "reason" with
           | Branched _ ->
             Branched { var = req_int j "var"; frac = req_num j "frac" }
           | r -> r);
      }
  | "lp_solve" ->
    Lp_solve
      {
        kind = req_enum Trace.lp_kinds j "kind";
        pivots = req_int j "pivots";
        flips = opt_int j "flips" ~default:0;
        obj = nullable_num j "obj";
        primal_res = req_num j "primal_res";
        dual_res = req_num j "dual_res";
        dt = req_num j "dt";
      }
  | "lu_factor" ->
    Lu_factor
      {
        m = opt_int j "m" ~default:0;
        fill = req_int j "fill";
        probes = opt_int j "probes" ~default:0;
        dt = req_num j "dt";
      }
  | "lu_refactor" ->
    Lu_refactor { trigger = req_enum Trace.triggers j "trigger"; etas = req_int j "etas" }
  | "prop_run" ->
    Prop_run
      {
        steps = req_int j "steps";
        fixings = req_int j "fixings";
        conflict = req_bool j "conflict";
      }
  | "incumbent" ->
    Incumbent
      {
        node = req_int j "node";
        obj = req_num j "obj";
        (* [source] postdates the incumbent's first release: traces
           recorded by older builds decode as search incumbents *)
        source =
          (match Json.member "source" j with
           | None | Some Json.Null -> Trace.Src_search
           | Some _ -> req_enum Trace.incumbent_sources j "source");
      }
  | "cert_check" ->
    Cert_check
      {
        node = req_int j "node";
        verdict = req_enum Trace.cert_verdicts j "verdict";
        kind = req_str j "kind";
        dt = req_num j "dt";
      }
  | "hook_give_up" ->
    Hook_give_up { node = req_int j "node"; what = req_str j "what" }
  | "span_begin" -> Span_begin (req_str j "name")
  | "span_end" -> Span_end (req_str j "name")
  | s -> raise (Bad (Printf.sprintf "unknown event type %S" s))

let record_of_json j =
  match
    {
      Trace.ts = req_num j "ts";
      dom = req_int j "dom";
      dname = req_str j "w";
      seq = req_int j "seq";
      ev = event_of_json j;
    }
  with
  | r -> Ok r
  | exception Bad msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Writers                                                             *)
(* ------------------------------------------------------------------ *)

let write_jsonl oc records =
  let b = Buffer.create 256 in
  Array.iter
    (fun r ->
      Buffer.clear b;
      Json.to_buffer b (record_to_json r);
      Buffer.add_char b '\n';
      Buffer.output_buffer oc b)
    records;
  flush oc

let us t = t *. 1e6

(* Every Trace record maps to exactly one trace_event whose [args] are
   the record's sequence number and payload fields ({!Trace.fields});
   only the Chrome shape is per event: phase, category, instant scope
   and the name of node and phase spans. Durationful events (LP
   solves, LU factorizations, exact checks) become "X" complete events
   whose [ts] is backdated by their [dt] field, which becomes [dur] —
   Trace stamps at completion. *)
let chrome_event (r : Trace.record) =
  let ty, fields = Trace.fields r.ev in
  let ph, cat, name, scope =
    match r.ev with
    | Trace.Node_open _ -> ("B", "search", "node", None)
    | Node_close _ -> ("E", "search", "node", None)
    | Lp_solve _ | Lu_factor _ -> ("X", "lp", ty, None)
    | Cert_check _ -> ("X", "certify", ty, None)
    | Lu_refactor _ -> ("i", "lp", ty, Some "t")
    | Prop_run _ -> ("i", "propagation", ty, Some "t")
    | Incumbent _ -> ("i", "search", ty, Some "g")
    | Hook_give_up _ -> ("i", "search", ty, Some "t")
    | Span_begin n -> ("B", "phase", n, None)
    | Span_end n -> ("E", "phase", n, None)
  in
  let span = match r.ev with Span_begin _ | Span_end _ -> true | _ -> false in
  let time =
    match List.assoc_opt "dt" fields with
    | Some (Trace.Float dt) when ph = "X" ->
      [ ("ts", num (Float.max 0. (us (r.ts -. dt)))); ("dur", num (us dt)) ]
    | _ -> [ ("ts", num (us r.ts)) ]
  in
  let args =
    List.filter (fun (k, _) -> k <> "dt" && not (span && k = "name")) fields
  in
  Json.Obj
    ([
       ("ph", Json.Str ph);
       ("name", Json.Str name);
       ("cat", Json.Str cat);
       ("pid", inum 1);
       ("tid", inum r.dom);
     ]
    @ time
    @ [ ("args", Json.Obj (("seq", inum r.seq) :: payload args)) ]
    @ match scope with None -> [] | Some s -> [ ("s", Json.Str s) ])

let write_chrome oc records =
  let b = Buffer.create 4096 in
  let first = ref true in
  let put j =
    if !first then first := false else Buffer.add_char b ',';
    Buffer.add_string b "\n  ";
    Json.to_buffer b j
  in
  Buffer.add_string b "{\"traceEvents\":[";
  Array.iter (fun r -> put (chrome_event r)) records;
  put
    (Json.Obj
       [
         ("ph", Json.Str "M");
         ("name", Json.Str "process_name");
         ("pid", inum 1);
         ("args", Json.Obj [ ("name", Json.Str "tpart solve") ]);
       ]);
  let tids : (int, string) Hashtbl.t = Hashtbl.create 8 in
  Array.iter
    (fun (r : Trace.record) ->
      if not (Hashtbl.mem tids r.dom) then Hashtbl.add tids r.dom r.dname)
    records;
  List.iter
    (fun (tid, name) ->
      put
        (Json.Obj
           [
             ("ph", Json.Str "M");
             ("name", Json.Str "thread_name");
             ("pid", inum 1);
             ("tid", inum tid);
             ("args", Json.Obj [ ("name", Json.Str name) ]);
           ]))
    (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tids []));
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.output_buffer oc b;
  flush oc

(* ------------------------------------------------------------------ *)
(* Reading traces back                                                 *)
(* ------------------------------------------------------------------ *)

let load path =
  Json.load_lines ~hint:"traces are read back as JSONL, one record object per line"
    path record_of_json
  |> Result.map Array.of_list

(* ------------------------------------------------------------------ *)
(* Stream consistency checks                                           *)
(* ------------------------------------------------------------------ *)

(* Per writer: its name, the last (ts, seq) seen, whether its first
   retained sequence number was above 0 (its ring wrapped, so spans may
   end whose begin was overwritten), and its open spans, innermost
   first. *)
type writer_state = {
  wname : string;
  mutable last : float * int;
  wrapped : bool;
  mutable spans : string list;
}

let check records =
  let problems = ref [] in
  let add fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let writers : (int, writer_state) Hashtbl.t = Hashtbl.create 8 in
  let opened : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let closed : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun (r : Trace.record) ->
      let w =
        match Hashtbl.find_opt writers r.dom with
        | Some w ->
          let ts, seq = w.last in
          if r.ts < ts then
            add "writer %d (%s): timestamp %.9f before %.9f at seq %d" r.dom
              r.dname r.ts ts r.seq;
          if r.seq <= seq then
            add "writer %d (%s): sequence %d not above %d" r.dom r.dname r.seq seq
          else if r.seq > seq + 1 then
            add "writer %d (%s): sequence gap, %d after %d" r.dom r.dname r.seq
              seq;
          w
        | None ->
          let w =
            { wname = r.dname; last = (r.ts, r.seq); wrapped = r.seq > 0; spans = [] }
          in
          Hashtbl.replace writers r.dom w;
          w
      in
      w.last <- (r.ts, r.seq);
      match r.ev with
      | Trace.Node_open { id; _ } ->
        if Hashtbl.mem opened id then add "node %d opened twice" id;
        Hashtbl.replace opened id ()
      | Node_close { id; _ } ->
        if not (Hashtbl.mem opened id) then
          add "node %d closed but never opened" id;
        if Hashtbl.mem closed id then add "node %d closed twice" id;
        Hashtbl.replace closed id ()
      | Span_begin name -> w.spans <- name :: w.spans
      | Span_end name -> (
        match w.spans with
        | top :: rest when top = name -> w.spans <- rest
        | [] ->
          if not w.wrapped then
            add "writer %d (%s): span %S ended but never began" r.dom r.dname
              name
        | top :: _ ->
          add "writer %d (%s): span %S ended inside span %S" r.dom r.dname name
            top;
          (* close it where it began, so one crossing is one problem *)
          let rec drop = function
            | n :: rest -> if n = name then rest else n :: drop rest
            | [] -> []
          in
          w.spans <- drop w.spans)
      | _ -> ())
    records;
  Hashtbl.iter
    (fun id () ->
      if not (Hashtbl.mem closed id) then add "node %d opened but never closed" id)
    opened;
  Hashtbl.iter
    (fun dom w ->
      List.iter
        (fun name ->
          add "writer %d (%s): span %S began but never ended" dom w.wname name)
        w.spans)
    writers;
  List.rev !problems

(* ------------------------------------------------------------------ *)
(* Search tree                                                         *)
(* ------------------------------------------------------------------ *)

module Tree = struct
  type node = {
    id : int;
    parent : int;
    depth : int;
    bound : float;
    obj : float;
    reason : string;
    dom : int;
    dname : string;
    opened : float;
    closed : float;
  }

  let of_records records =
    let nodes : (int, node) Hashtbl.t = Hashtbl.create 256 in
    Array.iter
      (fun (r : Trace.record) ->
        match r.ev with
        | Trace.Node_open { id; parent; depth; bound } ->
          Hashtbl.replace nodes id
            {
              id;
              parent;
              depth;
              bound;
              obj = Float.nan;
              reason = "";
              dom = r.dom;
              dname = r.dname;
              opened = r.ts;
              closed = Float.nan;
            }
        | Node_close { id; obj; reason } -> (
          match Hashtbl.find_opt nodes id with
          | Some n ->
            Hashtbl.replace nodes id
              { n with obj; reason = Trace.reason_name reason; closed = r.ts }
          | None -> ())
        | _ -> ())
      records;
    Hashtbl.fold (fun _ n acc -> n :: acc) nodes []
    |> List.sort (fun a b -> Int.compare a.id b.id)

  (* fill colors, in [Trace.close_reasons] order *)
  let reason_colors =
    [|
      "lightblue"; "palegreen"; "lightsalmon"; "gray85"; "plum"; "khaki"; "orange"; "tomato";
    |]

  let reason_color name =
    match Array.find_index (fun (_, n) -> n = name) Trace.close_reasons with
    | Some i -> reason_colors.(i)
    | None -> "white"

  let to_dot nodes =
    let b = Buffer.create 4096 in
    Buffer.add_string b "digraph search {\n";
    Buffer.add_string b
      "  node [shape=box, style=filled, fontname=\"monospace\", fontsize=9];\n";
    List.iter
      (fun n ->
        let obj_s =
          if Float.is_nan n.obj then "-" else Printf.sprintf "%.6g" n.obj
        in
        Buffer.add_string b
          (Printf.sprintf
             "  n%d [label=\"#%d d=%d\\nobj=%s\\n%s\", fillcolor=%s];\n" n.id
             n.id n.depth obj_s
             (if n.reason = "" then "open" else n.reason)
             (reason_color n.reason)))
      nodes;
    List.iter
      (fun n ->
        if n.parent >= 0 then
          Buffer.add_string b (Printf.sprintf "  n%d -> n%d;\n" n.parent n.id))
      nodes;
    Buffer.add_string b "}\n";
    Buffer.contents b

  let to_json nodes =
    Json.Arr
      (List.map
         (fun n ->
           Json.Obj
             [
               ("id", inum n.id);
               ("parent", inum n.parent);
               ("depth", inum n.depth);
               ("bound", num n.bound);
               ("obj", if Float.is_nan n.obj then Json.Null else num n.obj);
               ("reason", Json.Str n.reason);
               ("dom", inum n.dom);
               ("writer", Json.Str n.dname);
               ("opened", num n.opened);
               ( "closed",
                 if Float.is_nan n.closed then Json.Null else num n.closed );
             ])
         nodes)
end

(* ------------------------------------------------------------------ *)
(* Metrics report                                                      *)
(* ------------------------------------------------------------------ *)

module Summary = struct
  type phase = { phase : string; seconds : float; count : int }

  type t = {
    events : int;
    dropped : int;
    duration : float;
    writers : (string * int) list;
    nodes_opened : int;
    nodes_closed : int;
    close_reasons : (string * int) list;
    max_depth : int;
    depth_hist : (int * int) list;
    lp_solves : int;
    lp_pivots : int;
    lp_flips : int;
    lp_seconds : float;
    lu_factors : int;
    lu_refactors : (string * int) list;
    prop_runs : int;
    prop_fixings : int;
    prop_conflicts : int;
    cert_checks : int;
    cert_seconds : float;
    cert_verdicts : (string * int) list;
    hook_give_ups : int;
    incumbents : (float * float * int) list;
    phases : phase list;
    node_lps : Metrics.node_lp_row array;
  }

  type acc = {
    mutable a_events : int;
    mutable a_duration : float;
    a_writers : (int, string * int) Hashtbl.t;
    (* Smallest sequence number seen per writer. Writers number their
       events densely from 0, so a positive minimum is exactly the
       count of events that writer's ring buffer overwrote. *)
    a_min_seq : (int, int) Hashtbl.t;
    mutable a_opened : int;
    mutable a_closed : int;
    a_reasons : (string, int) Hashtbl.t;
    mutable a_max_depth : int;
    a_depths : (int, int) Hashtbl.t;
    mutable a_lp_solves : int;
    mutable a_lp_pivots : int;
    mutable a_lp_flips : int;
    mutable a_lp_seconds : float;
    mutable a_lu_factors : int;
    a_lu_refactors : (string, int) Hashtbl.t;
    mutable a_prop_runs : int;
    mutable a_prop_fixings : int;
    mutable a_prop_conflicts : int;
    mutable a_cert_checks : int;
    mutable a_cert_seconds : float;
    a_cert_verdicts : (string, int) Hashtbl.t;
    mutable a_hook_give_ups : int;
    mutable a_incumbents : (float * float * int) list;
    (* Per-writer span stacks: (name, start ts, child time). *)
    a_spans : (int, (string * float * float) list ref) Hashtbl.t;
    a_phases : (string, float * int) Hashtbl.t;
    (* Pivots and LP seconds of the node open on each writer: a node's
       LP solves run on the engine of the context that opened it, which
       emits on the same writer. *)
    a_node_lp : (int, int * float) Hashtbl.t;
    mutable a_node_samples : (Trace.close_reason * int * float) list;
  }

  let fresh () =
    {
      a_events = 0;
      a_duration = 0.;
      a_writers = Hashtbl.create 8;
      a_min_seq = Hashtbl.create 8;
      a_opened = 0;
      a_closed = 0;
      a_reasons = Hashtbl.create 8;
      a_max_depth = 0;
      a_depths = Hashtbl.create 32;
      a_lp_solves = 0;
      a_lp_pivots = 0;
      a_lp_flips = 0;
      a_lp_seconds = 0.;
      a_lu_factors = 0;
      a_lu_refactors = Hashtbl.create 4;
      a_prop_runs = 0;
      a_prop_fixings = 0;
      a_prop_conflicts = 0;
      a_cert_checks = 0;
      a_cert_seconds = 0.;
      a_cert_verdicts = Hashtbl.create 4;
      a_hook_give_ups = 0;
      a_incumbents = [];
      a_spans = Hashtbl.create 8;
      a_phases = Hashtbl.create 8;
      a_node_lp = Hashtbl.create 8;
      a_node_samples = [];
    }

  let bump tbl key by =
    let v = match Hashtbl.find_opt tbl key with Some v -> v | None -> 0 in
    Hashtbl.replace tbl key (v + by)

  let span_stack acc dom =
    match Hashtbl.find_opt acc.a_spans dom with
    | Some s -> s
    | None ->
      let s = ref [] in
      Hashtbl.add acc.a_spans dom s;
      s

  let end_span acc stack name end_ts =
    match !stack with
    | (n, start, child) :: rest when n = name ->
      let dur = Float.max 0. (end_ts -. start) in
      let self = Float.max 0. (dur -. child) in
      let s, c =
        match Hashtbl.find_opt acc.a_phases name with
        | Some (s, c) -> (s, c)
        | None -> (0., 0)
      in
      Hashtbl.replace acc.a_phases name (s +. self, c + 1);
      (* charge the full duration to the parent as child time *)
      (stack :=
         match rest with
         | (pn, ps, pc) :: tail -> (pn, ps, pc +. dur) :: tail
         | [] -> [])
    | _ ->
      (* Mismatched or dangling end: count it with zero duration so it
         still shows up rather than vanishing. *)
      let s, c =
        match Hashtbl.find_opt acc.a_phases name with
        | Some (s, c) -> (s, c)
        | None -> (0., 0)
      in
      Hashtbl.replace acc.a_phases name (s, c + 1)

  let feed acc (r : Trace.record) =
    acc.a_events <- acc.a_events + 1;
    if r.ts > acc.a_duration then acc.a_duration <- r.ts;
    (let _, n =
       match Hashtbl.find_opt acc.a_writers r.dom with
       | Some wn -> wn
       | None -> (r.dname, 0)
     in
     Hashtbl.replace acc.a_writers r.dom (r.dname, n + 1));
    (match Hashtbl.find_opt acc.a_min_seq r.dom with
     | Some m when m <= r.seq -> ()
     | _ -> Hashtbl.replace acc.a_min_seq r.dom r.seq);
    match r.ev with
    | Trace.Node_open { depth; _ } ->
      acc.a_opened <- acc.a_opened + 1;
      if depth > acc.a_max_depth then acc.a_max_depth <- depth;
      bump acc.a_depths depth 1;
      Hashtbl.replace acc.a_node_lp r.dom (0, 0.)
    | Node_close { reason; _ } ->
      acc.a_closed <- acc.a_closed + 1;
      bump acc.a_reasons (Trace.reason_name reason) 1;
      (match Hashtbl.find_opt acc.a_node_lp r.dom with
       | Some (p, s) ->
         acc.a_node_samples <- (reason, p, s) :: acc.a_node_samples;
         Hashtbl.remove acc.a_node_lp r.dom
       | None -> ())
    | Lp_solve { pivots; flips; dt; _ } ->
      (match Hashtbl.find_opt acc.a_node_lp r.dom with
       | Some (p, s) -> Hashtbl.replace acc.a_node_lp r.dom (p + pivots, s +. dt)
       | None -> ());
      acc.a_lp_solves <- acc.a_lp_solves + 1;
      acc.a_lp_pivots <- acc.a_lp_pivots + pivots;
      acc.a_lp_flips <- acc.a_lp_flips + flips;
      acc.a_lp_seconds <- acc.a_lp_seconds +. dt
    | Lu_factor _ -> acc.a_lu_factors <- acc.a_lu_factors + 1
    | Lu_refactor { trigger; _ } ->
      bump acc.a_lu_refactors (Trace.trigger_name trigger) 1
    | Prop_run { fixings; conflict; _ } ->
      acc.a_prop_runs <- acc.a_prop_runs + 1;
      acc.a_prop_fixings <- acc.a_prop_fixings + fixings;
      if conflict then acc.a_prop_conflicts <- acc.a_prop_conflicts + 1
    | Incumbent { node; obj; source = _ } ->
      acc.a_incumbents <- (r.ts, obj, node) :: acc.a_incumbents
    | Cert_check { verdict; dt; _ } ->
      acc.a_cert_checks <- acc.a_cert_checks + 1;
      acc.a_cert_seconds <- acc.a_cert_seconds +. dt;
      bump acc.a_cert_verdicts (Trace.cert_verdict_name verdict) 1
    | Hook_give_up _ -> acc.a_hook_give_ups <- acc.a_hook_give_ups + 1
    | Span_begin name ->
      let stack = span_stack acc r.dom in
      stack := (name, r.ts, 0.) :: !stack
    | Span_end name ->
      let stack = span_stack acc r.dom in
      end_span acc stack name r.ts

  let finish acc =
    (* Close dangling spans at the trace horizon. *)
    Hashtbl.iter
      (fun _ stack ->
        while !stack <> [] do
          match !stack with
          | (name, _, _) :: _ -> end_span acc stack name acc.a_duration
          | [] -> ()
        done)
      acc.a_spans;
    let sorted_tbl tbl =
      Hashtbl.fold (fun k v a -> (k, v) :: a) tbl []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    {
      events = acc.a_events;
      dropped = Hashtbl.fold (fun _ m a -> a + m) acc.a_min_seq 0;
      duration = acc.a_duration;
      writers =
        Hashtbl.fold (fun dom wn a -> (dom, wn) :: a) acc.a_writers []
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
        |> List.map snd;
      nodes_opened = acc.a_opened;
      nodes_closed = acc.a_closed;
      close_reasons = sorted_tbl acc.a_reasons;
      max_depth = acc.a_max_depth;
      depth_hist =
        Hashtbl.fold (fun d n a -> (d, n) :: a) acc.a_depths []
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b);
      lp_solves = acc.a_lp_solves;
      lp_pivots = acc.a_lp_pivots;
      lp_flips = acc.a_lp_flips;
      lp_seconds = acc.a_lp_seconds;
      lu_factors = acc.a_lu_factors;
      lu_refactors = sorted_tbl acc.a_lu_refactors;
      prop_runs = acc.a_prop_runs;
      prop_fixings = acc.a_prop_fixings;
      prop_conflicts = acc.a_prop_conflicts;
      cert_checks = acc.a_cert_checks;
      cert_seconds = acc.a_cert_seconds;
      cert_verdicts = sorted_tbl acc.a_cert_verdicts;
      hook_give_ups = acc.a_hook_give_ups;
      incumbents = List.rev acc.a_incumbents;
      phases =
        Hashtbl.fold
          (fun phase (seconds, count) a -> { phase; seconds; count } :: a)
          acc.a_phases []
        |> List.sort (fun a b -> Float.compare b.seconds a.seconds);
      node_lps = Metrics.node_lp_rows acc.a_node_samples;
    }

  let of_records records =
    let acc = fresh () in
    Array.iter (feed acc) records;
    finish acc

  let pp_assoc ppf l =
    if l = [] then Format.fprintf ppf "none"
    else
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Format.fprintf ppf " ";
          Format.fprintf ppf "%s=%d" k v)
        l

  let pp ppf t =
    let line fmt = Format.fprintf ppf fmt in
    line "events        %d in %.3f s, %d writer%s (" t.events t.duration
      (List.length t.writers)
      (if List.length t.writers = 1 then "" else "s");
    List.iteri
      (fun i (name, n) ->
        if i > 0 then line ", ";
        line "%s: %d" name n)
      t.writers;
    line ")@.";
    if t.dropped > 0 then
      line
        "WARNING       %d events dropped (ring buffers wrapped; raise the \
         tracer capacity)@."
        t.dropped;
    line "nodes         opened=%d closed=%d max_depth=%d@." t.nodes_opened
      t.nodes_closed t.max_depth;
    line "close reasons %a@." pp_assoc t.close_reasons;
    line "lp            solves=%d pivots=%d flips=%d time=%.3f s@." t.lp_solves
      t.lp_pivots t.lp_flips t.lp_seconds;
    line "lu            factors=%d refactors: %a@." t.lu_factors pp_assoc
      t.lu_refactors;
    line "propagation   runs=%d fixings=%d conflicts=%d@." t.prop_runs
      t.prop_fixings t.prop_conflicts;
    if t.cert_checks > 0 then
      line "certification checks=%d time=%.3f s %a@." t.cert_checks
        t.cert_seconds pp_assoc t.cert_verdicts;
    if t.hook_give_ups > 0 then
      line "hook          give-ups=%d@." t.hook_give_ups;
    (match t.incumbents with
    | [] -> line "incumbents    none@."
    | incs ->
      let ts0, obj0, n0 = List.hd incs in
      let ts1, obj1, n1 = List.nth incs (List.length incs - 1) in
      line "incumbents    %d (first %.6g @%.3fs node %d, best %.6g @%.3fs node %d)@."
        (List.length incs) obj0 ts0 n0 obj1 ts1 n1);
    line "phases       ";
    if t.phases = [] then line " none"
    else
      List.iter
        (fun { phase; seconds; count } ->
          line " %s=%.3fs/%d" phase seconds count)
        t.phases;
    line "@.%a" Metrics_export.pp_node_lps t.node_lps

  let to_json t =
    Json.Obj
      [
        ("events", inum t.events);
        ("dropped", inum t.dropped);
        ("duration", num t.duration);
        ( "writers",
          Json.Arr
            (List.map
               (fun (name, n) ->
                 Json.Obj [ ("name", Json.Str name); ("events", inum n) ])
               t.writers) );
        ( "nodes",
          Json.Obj
            [
              ("opened", inum t.nodes_opened);
              ("closed", inum t.nodes_closed);
              ("max_depth", inum t.max_depth);
              ( "close_reasons",
                Json.Obj (List.map (fun (k, v) -> (k, inum v)) t.close_reasons)
              );
              ( "depth_hist",
                Json.Arr
                  (List.map
                     (fun (d, n) -> Json.Arr [ inum d; inum n ])
                     t.depth_hist) );
            ] );
        ( "lp",
          Json.Obj
            [
              ("solves", inum t.lp_solves);
              ("pivots", inum t.lp_pivots);
              ("flips", inum t.lp_flips);
              ("seconds", num t.lp_seconds);
            ] );
        ( "lu",
          Json.Obj
            [
              ("factors", inum t.lu_factors);
              ( "refactors",
                Json.Obj (List.map (fun (k, v) -> (k, inum v)) t.lu_refactors)
              );
            ] );
        ( "propagation",
          Json.Obj
            [
              ("runs", inum t.prop_runs);
              ("fixings", inum t.prop_fixings);
              ("conflicts", inum t.prop_conflicts);
            ] );
        ( "certification",
          Json.Obj
            [
              ("checks", inum t.cert_checks);
              ("seconds", num t.cert_seconds);
              ( "verdicts",
                Json.Obj (List.map (fun (k, v) -> (k, inum v)) t.cert_verdicts)
              );
            ] );
        ("hook_give_ups", inum t.hook_give_ups);
        ( "incumbents",
          Json.Arr
            (List.map
               (fun (ts, obj, node) ->
                 Json.Obj
                   [ ("ts", num ts); ("obj", num obj); ("node", inum node) ])
               t.incumbents) );
        ( "phases",
          Json.Arr
            (List.map
               (fun { phase; seconds; count } ->
                 Json.Obj
                   [
                     ("phase", Json.Str phase);
                     ("seconds", num seconds);
                     ("count", inum count);
                   ])
               t.phases) );
        ("node_lps", Metrics_export.node_lps_to_json t.node_lps);
      ]
end
