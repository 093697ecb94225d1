module J = Ilp.Json

type severity = Improvement | Within_noise | Regression

type cell = {
  c_section : string;
  c_row : string;
  c_field : string;
  c_old : float;
  c_new : float;
  c_ratio : float;
  c_time : bool;
  c_severity : severity;
}

type report = {
  r_sections : string list;
  r_cells : cell list;
  r_compared : int;
  r_missing_rows : (string * string) list;
  r_new_rows : (string * string) list;
  r_status_changes : (string * string) list;
  r_regressions : int;
  r_improvements : int;
}

(* ------------------------------------------------------------------ *)
(* Field classification                                                *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let has_suffix s suf = Filename.check_suffix s suf

type direction = Lower_better | Higher_better | Informational

(* Benchmarks measure effort spent reaching the same answer, so less
   time / fewer nodes is better; [speedup] ratios invert. Structural
   counts (fill, etas, steals, fixings, …) shift legitimately
   with algorithmic changes and are reported but never flagged. *)
let classify field =
  if contains field "speedup" then (Higher_better, true)
  else if
    has_suffix field "_s" || has_suffix field "_seconds"
    || contains field "seconds" || contains field "time"
  then (Lower_better, true)
  else if
    field = "nodes" || has_suffix field "pivots"
    || has_suffix field "factorizations"
  then (Lower_better, false)
  else (Informational, false)

let judge ~dir ~time_like ~tt ~ct ov nv =
  if ov = nv then Within_noise
  else
    let thr = if time_like then tt else ct in
    let floor_abs = if time_like then 0.05 else 1.0 in
    let worse, better =
      match dir with
      | Lower_better ->
        ( nv > (ov *. thr) +. 1e-12 && nv -. ov >= floor_abs -. 1e-12,
          nv < (ov /. thr) -. 1e-12 && ov -. nv >= floor_abs -. 1e-12 )
      | Higher_better ->
        ( nv < (ov /. thr) -. 1e-12 && ov -. nv >= floor_abs -. 1e-12,
          nv > (ov *. thr) +. 1e-12 && nv -. ov >= floor_abs -. 1e-12 )
      | Informational -> (false, false)
    in
    if worse then Regression
    else if better then Improvement
    else Within_noise

(* ------------------------------------------------------------------ *)
(* Shape discovery                                                     *)

type shape = {
  sh_rows : (string * (string * J.t) list list) list;
      (** Row sections: key -> list of row objects, file order. *)
  sh_scalars : (string * (string * J.t) list) list;
      (** Scalar sections (incl. the implicit top-level one). *)
}

let toplevel_section = "(top-level)"

let shape_of = function
  | J.Obj kvs ->
    let rows = ref [] and scalars = ref [] and top = ref [] in
    List.iter
      (fun (k, v) ->
        match v with
        | J.Arr (_ :: _ as items)
          when List.for_all (function J.Obj _ -> true | _ -> false) items
          ->
          let objs =
            List.map (function J.Obj o -> o | _ -> assert false) items
          in
          rows := (k, objs) :: !rows
        | J.Obj o when k <> "host" -> scalars := (k, o) :: !scalars
        | J.Num _ -> top := (k, v) :: !top
        | _ -> ())
      kvs;
    let scalars =
      List.rev !scalars
      @ (match List.rev !top with [] -> [] | t -> [ (toplevel_section, t) ])
    in
    Ok { sh_rows = List.rev !rows; sh_scalars = scalars }
  | _ -> Error "not a JSON object"

let key_fields = [ "graph"; "n"; "l"; "jobs"; "config"; "name"; "rule" ]

let row_key row =
  let parts =
    List.filter_map
      (fun k ->
        match List.assoc_opt k row with
        | Some (J.Str s) -> Some (Printf.sprintf "%s=%s" k s)
        | Some (J.Num _ as v) -> Some (Printf.sprintf "%s=%s" k (J.to_string v))
        | _ -> None)
      key_fields
  in
  match parts with [] -> "(row)" | _ -> String.concat " " parts

(* Rows sharing all identity fields (repeated measurements) are
   disambiguated positionally so they still pair up across files. *)
let index_rows rows =
  let seen = Hashtbl.create 16 in
  List.map
    (fun row ->
      let k = row_key row in
      let n = try Hashtbl.find seen k with Not_found -> 0 in
      Hashtbl.replace seen k (n + 1);
      ((if n = 0 then k else Printf.sprintf "%s #%d" k (n + 1)), row))
    rows

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)

type acc = {
  mutable a_cells : cell list;
  mutable a_compared : int;
  mutable a_missing : (string * string) list;
  mutable a_new : (string * string) list;
  mutable a_status : (string * string) list;
  mutable a_reg : int;
  mutable a_imp : int;
}

let compare_fields acc ~tt ~ct ~ignore_ section rowname old_row new_row =
  List.iter
    (fun (field, ov) ->
      if List.mem field ignore_ then ()
      else
      match (ov, List.assoc_opt field new_row) with
      | J.Num o, Some (J.Num n) ->
        acc.a_compared <- acc.a_compared + 1;
        if o <> n then begin
          let dir, time_like = classify field in
          let sev = judge ~dir ~time_like ~tt ~ct o n in
          (match sev with
           | Regression -> acc.a_reg <- acc.a_reg + 1
           | Improvement -> acc.a_imp <- acc.a_imp + 1
           | Within_noise -> ());
          acc.a_cells <-
            {
              c_section = section;
              c_row = rowname;
              c_field = field;
              c_old = o;
              c_new = n;
              c_ratio = (if o = 0. then Float.nan else n /. o);
              c_time = time_like;
              c_severity = sev;
            }
            :: acc.a_cells
        end
      | J.Bool o, Some (J.Bool n) when o <> n ->
        let where =
          if rowname = "" then section
          else Printf.sprintf "%s %s" section rowname
        in
        if o && not n then begin
          acc.a_reg <- acc.a_reg + 1;
          acc.a_status <-
            (where, Printf.sprintf "%s: true -> false" field) :: acc.a_status
        end
        else acc.a_imp <- acc.a_imp + 1
      | J.Str o, Some (J.Str n)
        when o <> n && not (List.mem field key_fields) ->
        let where =
          if rowname = "" then section
          else Printf.sprintf "%s %s" section rowname
        in
        acc.a_reg <- acc.a_reg + 1;
        acc.a_status <-
          (where, Printf.sprintf "%s: %S -> %S" field o n) :: acc.a_status
      | _ -> ())
    old_row

let diff ?(time_threshold = 1.5) ?(count_threshold = 1.1) ?(ignore = [])
    old_ new_ =
  match (shape_of old_, shape_of new_) with
  | Error e, _ -> Error (Printf.sprintf "OLD report: %s" e)
  | _, Error e -> Error (Printf.sprintf "NEW report: %s" e)
  | Ok so, Ok sn ->
    let tt = time_threshold and ct = count_threshold and ignore_ = ignore in
    let acc =
      {
        a_cells = [];
        a_compared = 0;
        a_missing = [];
        a_new = [];
        a_status = [];
        a_reg = 0;
        a_imp = 0;
      }
    in
    let sections = ref [] in
    (* Row sections present on both sides. *)
    List.iter
      (fun (name, old_rows) ->
        match List.assoc_opt name sn.sh_rows with
        | None -> ()
        | Some new_rows ->
          sections := name :: !sections;
          let old_i = index_rows old_rows and new_i = index_rows new_rows in
          List.iter
            (fun (k, orow) ->
              match List.assoc_opt k new_i with
              | None -> acc.a_missing <- (name, k) :: acc.a_missing
              | Some nrow -> compare_fields acc ~tt ~ct ~ignore_ name k orow nrow)
            old_i;
          List.iter
            (fun (k, _) ->
              if not (List.mem_assoc k old_i) then
                acc.a_new <- (name, k) :: acc.a_new)
            new_i)
      so.sh_rows;
    (* Scalar sections. *)
    List.iter
      (fun (name, old_fields) ->
        match List.assoc_opt name sn.sh_scalars with
        | None -> ()
        | Some new_fields ->
          sections := name :: !sections;
          compare_fields acc ~tt ~ct ~ignore_ name "" old_fields new_fields)
      so.sh_scalars;
    let sections = List.rev !sections in
    if sections = [] then
      Error "the two reports share no benchmark section"
    else if acc.a_compared = 0 && acc.a_status = [] then
      Error
        (Printf.sprintf
           "shared section(s) %s contain no comparable rows or fields"
           (String.concat ", " sections))
    else
      Ok
        {
          r_sections = sections;
          r_cells = List.rev acc.a_cells;
          r_compared = acc.a_compared;
          r_missing_rows = List.rev acc.a_missing;
          r_new_rows = List.rev acc.a_new;
          r_status_changes = List.rev acc.a_status;
          r_regressions = acc.a_reg;
          r_improvements = acc.a_imp;
        }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let pp_val ppf v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Format.fprintf ppf "%.0f" v
  else Format.fprintf ppf "%.4g" v

let pp ppf r =
  let flagged s = List.filter (fun c -> c.c_severity = s) r.r_cells in
  let pp_cell tag c =
    Format.fprintf ppf "  %-11s %s%s%s: %a -> %a" tag c.c_section
      (if c.c_row = "" then "" else " " ^ c.c_row)
      ("." ^ c.c_field) pp_val c.c_old pp_val c.c_new;
    if not (Float.is_nan c.c_ratio) then
      Format.fprintf ppf "  (%.2fx)" c.c_ratio;
    Format.fprintf ppf "@."
  in
  Format.fprintf ppf "sections: %s@." (String.concat ", " r.r_sections);
  List.iter (pp_cell "REGRESSION") (flagged Regression);
  List.iter
    (fun (where, what) ->
      Format.fprintf ppf "  %-11s %s %s@." "REGRESSION" where what)
    r.r_status_changes;
  List.iter (pp_cell "improvement") (flagged Improvement);
  List.iter
    (fun (s, k) -> Format.fprintf ppf "  %-11s %s %s@." "missing-row" s k)
    r.r_missing_rows;
  List.iter
    (fun (s, k) -> Format.fprintf ppf "  %-11s %s %s@." "new-row" s k)
    r.r_new_rows;
  let noise =
    List.length (flagged Within_noise)
  in
  if noise > 0 then
    Format.fprintf ppf "  %d cell(s) changed within noise thresholds@." noise;
  Format.fprintf ppf
    "bench diff: %d cell(s) compared, %d regression(s), %d improvement(s)@."
    r.r_compared r.r_regressions r.r_improvements

let load_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | contents -> (
    match J.parse contents with
    | Ok j -> Ok j
    | Error e -> Error (Printf.sprintf "%s: %s" path e))
