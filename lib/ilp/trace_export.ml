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
    max_depth : int;
    depth_hist : (int * int) list;
    incumbents : (float * float * int) list;
    phases : phase list;
    metrics : Metrics.snapshot;
    node_lps : Metrics.node_lp_row array;
  }

  let replayed =
    Metrics_export.
      [
        Counter C_nodes;
        Counter C_incumbents;
        Counter C_lp_solves;
        Counter C_lp_pivots;
        Counter C_lp_bound_flips;
        Counter C_lu_factorizations;
        Counter C_lu_refactor_eta;
        Counter C_lu_refactor_numeric;
        Counter C_lu_refactor_residual;
        Counter C_lu_probes;
        Counter C_prop_runs;
        Counter C_prop_fixings;
        Counter C_prop_prunes;
        Counter C_hook_give_ups;
        Counter C_cert_checked;
        Counter C_certified_nodes;
        Counter C_cert_refuted;
        Counter C_cert_uncertifiable;
        Sum S_cert_seconds;
        Histogram H_factor_seconds;
        Histogram H_lp_seconds;
      ]

  (* One trace writer, replayed: the shard its events are counted into,
     as its search context's shard counted them live. *)
  type writer = {
    name : string;
    sh : Metrics.shard;
    mutable count : int;
    (* Smallest sequence number seen. Writers number their events
       densely from 0, so a positive minimum is exactly the count of
       events the writer's ring buffer overwrote. *)
    mutable min_seq : int;
    (* The node open on the writer: its [C_lp_pivots] baseline and the
       seconds of its LP solves so far. A node's LP solves run on the
       engine of the context that opened it, which emits on the same
       writer. *)
    mutable node : (int * float) option;
    (* Open spans: (name, start ts, child time). *)
    mutable spans : (string * float * float) list;
  }

  let sorted tbl =
    Hashtbl.fold (fun k v a -> (k, v) :: a) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let of_records records =
    let writers = Hashtbl.create 8 and depths = Hashtbl.create 32 in
    let phases = Hashtbl.create 8 in
    let duration = ref 0. and max_depth = ref 0 and incumbents = ref [] in
    let charge name seconds =
      let s, c =
        Option.value (Hashtbl.find_opt phases name) ~default:(0., 0)
      in
      Hashtbl.replace phases name (s +. seconds, c + 1)
    in
    let end_span w name end_ts =
      match w.spans with
      | (n, start, child) :: rest when n = name ->
        let dur = Float.max 0. (end_ts -. start) in
        charge name (Float.max 0. (dur -. child));
        (* charge the full duration to the parent as child time *)
        w.spans <-
          (match rest with
           | (pn, ps, pc) :: tail -> (pn, ps, pc +. dur) :: tail
           | [] -> [])
      | _ ->
        (* Mismatched or dangling end: count it with zero duration so it
           still shows up rather than vanishing. *)
        charge name 0.
    in
    let writer (r : Trace.record) =
      match Hashtbl.find_opt writers r.dom with
      | Some w -> w
      | None ->
        let w =
          {
            name = r.dname;
            sh = Metrics.make_shard ();
            count = 0;
            min_seq = r.seq;
            node = None;
            spans = [];
          }
        in
        Hashtbl.add writers r.dom w;
        w
    in
    Array.iter
      (fun (r : Trace.record) ->
        let w = writer r in
        let sh = w.sh in
        w.count <- w.count + 1;
        w.min_seq <- Int.min w.min_seq r.seq;
        if r.ts > !duration then duration := r.ts;
        match r.ev with
        | Trace.Node_open { depth; _ } ->
          Metrics.incr sh C_nodes;
          if depth > !max_depth then max_depth := depth;
          Hashtbl.replace depths depth
            (1 + Option.value (Hashtbl.find_opt depths depth) ~default:0);
          w.node <- Some (Metrics.count sh C_lp_pivots, 0.)
        | Node_close { reason; _ } ->
          Option.iter
            (fun (pivots0, seconds) ->
              Metrics.node_lp sh reason
                ~pivots:(Metrics.count sh C_lp_pivots - pivots0)
                ~seconds)
            w.node;
          w.node <- None
        | Lp_solve { pivots; flips; dt; _ } ->
          Metrics.incr sh C_lp_solves;
          Metrics.add sh C_lp_pivots pivots;
          Metrics.add sh C_lp_bound_flips flips;
          Metrics.observe sh H_lp_seconds dt;
          w.node <- Option.map (fun (p, s) -> (p, s +. dt)) w.node
        | Lu_factor { probes; dt; _ } ->
          Metrics.incr sh C_lu_factorizations;
          Metrics.add sh C_lu_probes probes;
          Metrics.observe sh H_factor_seconds dt
        | Lu_refactor { trigger; _ } ->
          Metrics.incr sh (Metrics.refactor_counter trigger)
        | Prop_run { fixings; conflict; _ } ->
          Metrics.incr sh C_prop_runs;
          Metrics.add sh C_prop_fixings fixings;
          if conflict then Metrics.incr sh C_prop_prunes
        | Incumbent { node; obj; source = _ } ->
          Metrics.incr sh C_incumbents;
          incumbents := (r.ts, obj, node) :: !incumbents
        | Cert_check { verdict; dt; _ } ->
          Metrics.count_check sh verdict ~seconds:dt
        | Hook_give_up _ -> Metrics.incr sh C_hook_give_ups
        | Span_begin name -> w.spans <- (name, r.ts, 0.) :: w.spans
        | Span_end name -> end_span w name r.ts)
      records;
    let writers = List.map snd (sorted writers) in
    (* Close dangling spans at the trace horizon. *)
    List.iter
      (fun w ->
        while w.spans <> [] do
          match w.spans with
          | (name, _, _) :: _ -> end_span w name !duration
          | [] -> ()
        done)
      writers;
    let shards = List.map (fun w -> w.sh) writers in
    {
      events = Array.length records;
      dropped = List.fold_left (fun a w -> a + w.min_seq) 0 writers;
      duration = !duration;
      writers = List.map (fun w -> (w.name, w.count)) writers;
      max_depth = !max_depth;
      depth_hist = sorted depths;
      incumbents = List.rev !incumbents;
      phases =
        Hashtbl.fold
          (fun phase (seconds, count) a -> { phase; seconds; count } :: a)
          phases []
        |> List.sort (fun a b -> Float.compare b.seconds a.seconds);
      metrics = Metrics.merge shards;
      node_lps = Metrics.node_lp_table shards;
    }

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
    line ")\n";
    if t.dropped > 0 then
      line
        "WARNING       %d events dropped (ring buffers wrapped; raise the \
         tracer capacity)\n"
        t.dropped;
    line "depth         max=%d\n" t.max_depth;
    (* close reasons by name, from the node-LP table *)
    (match
       List.filter_map
         (fun (r : Metrics.node_lp_row) ->
           if r.nl_reason = "all" then None else Some (r.nl_reason, r.nl_nodes))
         (Array.to_list t.node_lps)
     with
     | [] -> line "close reasons none\n"
     | rows ->
       line "close reasons";
       List.iter (fun (k, n) -> line " %s=%d" k n) (List.sort compare rows);
       line "\n");
    (match t.incumbents with
    | [] -> line "incumbents    none\n"
    | incs ->
      let ts0, obj0, n0 = List.hd incs in
      let ts1, obj1, n1 = List.nth incs (List.length incs - 1) in
      line "incumbents    %d (first %.6g @@%.3fs node %d, best %.6g @@%.3fs node %d)\n"
        (List.length incs) obj0 ts0 n0 obj1 ts1 n1);
    line "phases       ";
    if t.phases = [] then line " none"
    else
      List.iter
        (fun { phase; seconds; count } ->
          line " %s=%.3fs/%d" phase seconds count)
        t.phases;
    line "\n";
    Metrics_export.pp_report ~only:replayed ~node_lps:t.node_lps ppf t.metrics

  let to_json t =
    Json.Obj
      ([
         ("events", inum t.events);
         ("dropped", inum t.dropped);
         ("duration", num t.duration);
         ( "writers",
           Json.Arr
             (List.map
                (fun (name, n) ->
                  Json.Obj [ ("name", Json.Str name); ("events", inum n) ])
                t.writers) );
         ("max_depth", inum t.max_depth);
         ( "depth_hist",
           Json.Arr
             (List.map (fun (d, n) -> Json.Arr [ inum d; inum n ]) t.depth_hist)
         );
       ]
      @ Metrics_export.cells_to_json ~only:replayed t.metrics
      @ [
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
        ])
end
