type severity = Error | Warn | Info

let severity_to_string = function
  | Error -> "error"
  | Warn -> "warn"
  | Info -> "info"

type diagnostic = {
  severity : severity;
  code : string;
  message : string;
  row : int option;
  var : int option;
}

type row_class =
  | Set_partitioning
  | Set_packing
  | Set_covering
  | Precedence
  | Knapsack
  | Big_m
  | Variable_bound
  | Other

let row_class_to_string = function
  | Set_partitioning -> "set-partitioning"
  | Set_packing -> "set-packing"
  | Set_covering -> "set-covering"
  | Precedence -> "precedence"
  | Knapsack -> "knapsack"
  | Big_m -> "big-M/linking"
  | Variable_bound -> "variable-bound"
  | Other -> "other"

(* ordering used for the census listing *)
let class_rank = function
  | Set_partitioning -> 0
  | Set_packing -> 1
  | Set_covering -> 2
  | Precedence -> 3
  | Knapsack -> 4
  | Big_m -> 5
  | Variable_bound -> 6
  | Other -> 7

type coeff_stats = {
  nnz : int;
  min_abs : float;
  max_abs : float;
  cond_ratio : float;
  rhs_max_abs : float;
}

type report = {
  model : string;
  nvars : int;
  nrows : int;
  diagnostics : diagnostic list;
  census : (row_class * int) list;
  stats : coeff_stats;
}

(* Sum duplicate variables and drop exact-zero coefficients, sorted by
   variable index: the canonical sparse form every check works on. *)
let normalize terms =
  let tbl = Hashtbl.create (List.length terms) in
  List.iter
    (fun (c, v) ->
      let v = (v : Lp.var :> int) in
      Hashtbl.replace tbl v (c +. Option.value ~default:0. (Hashtbl.find_opt tbl v)))
    terms;
  Hashtbl.fold (fun v c acc -> if c = 0. then acc else (v, c) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let activity_range lp norm =
  List.fold_left
    (fun (lo, hi) (v, c) ->
      let v = Lp.var_of_int lp v in
      let lb = Lp.var_lb lp v and ub = Lp.var_ub lp v in
      if c >= 0. then (lo +. (c *. lb), hi +. (c *. ub))
      else (lo +. (c *. ub), hi +. (c *. lb)))
    (0., 0.) norm

let classify lp norm sense rhs =
  match norm with
  | [] -> Other
  | [ _ ] -> Variable_bound
  | _ ->
    let all_binary =
      List.for_all (fun (v, _) -> Lp.var_kind lp (Lp.var_of_int lp v) = Lp.Binary) norm
    in
    let all_one = List.for_all (fun (_, c) -> c = 1.) norm in
    let all_unit = List.for_all (fun (_, c) -> Float.abs c = 1.) norm in
    let same_sign =
      List.for_all (fun (_, c) -> c > 0.) norm
      || List.for_all (fun (_, c) -> c < 0.) norm
    in
    if all_one && all_binary && rhs = 1. then
      match sense with
      | Lp.Eq -> Set_partitioning
      | Lp.Le -> Set_packing
      | Lp.Ge -> Set_covering
    else if (not same_sign) && all_unit && rhs = 0. then Precedence
    else if not same_sign then Big_m
    else if sense <> Lp.Eq then Knapsack
    else Other

let classify_row lp i =
  let terms, sense, rhs = Lp.row lp i in
  classify lp (normalize terms) sense rhs

(* Canonical signature for duplicate/parallel detection: orient Ge rows
   as Le, orient Eq rows so the leading coefficient is positive, then
   scale so the leading coefficient is 1. Two rows with equal signatures
   are parallel; equal scaled right-hand sides make them duplicates.
   Coefficients are keyed at 12 significant digits. *)
let signature norm sense rhs =
  match norm with
  | [] -> None
  | (_, c0) :: _ ->
    let norm, sense, rhs =
      match sense with
      | Lp.Ge -> (List.map (fun (v, c) -> (v, -.c)) norm, Lp.Le, -.rhs)
      | Lp.Eq when c0 < 0. ->
        (List.map (fun (v, c) -> (v, -.c)) norm, Lp.Eq, -.rhs)
      | Lp.Le | Lp.Eq -> (norm, sense, rhs)
    in
    let scale = Float.abs (snd (List.hd norm)) in
    let norm = List.map (fun (v, c) -> (v, c /. scale)) norm in
    let rhs = rhs /. scale in
    let buf = Buffer.create 64 in
    Buffer.add_string buf (match sense with Lp.Le -> "L" | Lp.Eq -> "E" | Lp.Ge -> assert false);
    List.iter (fun (v, c) -> Buffer.add_string buf (Printf.sprintf "|%d:%.12g" v c)) norm;
    Some (Buffer.contents buf, sense, rhs)

let pp_sense ppf = function
  | Lp.Le -> Format.fprintf ppf "<="
  | Lp.Ge -> Format.fprintf ppf ">="
  | Lp.Eq -> Format.fprintf ppf "="

let cond_limit = 1e8

let analyze lp =
  let nvars = Lp.num_vars lp and nrows = Lp.num_constrs lp in
  let diags = ref [] in
  let emit severity code ?row ?var fmt =
    Format.kasprintf
      (fun message -> diags := { severity; code; message; row; var } :: !diags)
      fmt
  in
  (* ---- variable checks -------------------------------------------- *)
  let used = Array.make nvars false in
  Lp.iter_rows lp (fun _ terms _ _ ->
      List.iter
        (fun (c, v) -> if c <> 0. then used.((v : Lp.var :> int)) <- true)
        terms);
  let obj = Lp.objective lp in
  for j = 0 to nvars - 1 do
    let v = Lp.var_of_int lp j in
    let lb = Lp.var_lb lp v and ub = Lp.var_ub lp v in
    let name = Lp.var_name lp v in
    if Float.is_nan lb || Float.is_nan ub then
      emit Error "nan-bounds" ~var:j "variable %s has NaN bounds" name
    else if lb > ub then
      emit Error "crossed-bounds" ~var:j "variable %s: lb %g > ub %g" name lb ub
    else begin
      (match Lp.var_kind lp v with
       | Lp.Binary | Lp.Integer ->
         if Float.is_finite lb && Float.is_finite ub && Float.ceil lb > Float.floor ub
         then
           emit Error "empty-integer-domain" ~var:j
             "integer variable %s: no integer point in [%g, %g]" name lb ub
         else if
           Lp.var_kind lp v = Lp.Binary
           && not (List.mem lb [ 0.; 1. ] && List.mem ub [ 0.; 1. ])
         then
           emit Warn "binary-bounds" ~var:j
             "binary variable %s has non-{0,1} bounds [%g, %g]" name lb ub
       | Lp.Continuous -> ());
      if (not used.(j)) && obj.(j) = 0. then
        emit Warn "unused-variable" ~var:j
          "variable %s appears in no row and not in the objective" name
    end
  done;
  (* ---- per-row checks --------------------------------------------- *)
  let classes = Hashtbl.create 8 in
  let nnz = ref 0 in
  let min_abs = ref Float.infinity and max_abs = ref 0. in
  let rhs_max_abs = ref 0. in
  Lp.iter_rows lp (fun i terms sense rhs ->
      let name = Lp.row_name lp i in
      let nzero =
        List.length (List.filter (fun (c, _) -> c = 0.) terms)
      in
      if nzero > 0 then
        emit Warn "zero-coefficient" ~row:i
          "row %s carries %d zero-coefficient term%s" name nzero
          (if nzero > 1 then "s" else "");
      let norm = normalize terms in
      rhs_max_abs := Float.max !rhs_max_abs (Float.abs rhs);
      List.iter
        (fun (_, c) ->
          incr nnz;
          let a = Float.abs c in
          min_abs := Float.min !min_abs a;
          max_abs := Float.max !max_abs a)
        norm;
      let cls = classify lp norm sense rhs in
      Hashtbl.replace classes cls (1 + Option.value ~default:0 (Hashtbl.find_opt classes cls));
      match norm with
      | [] ->
        let sat =
          match sense with
          | Lp.Le -> 0. <= rhs
          | Lp.Ge -> 0. >= rhs
          | Lp.Eq -> rhs = 0.
        in
        if sat then
          emit Warn "empty-row" ~row:i
            "row %s has no terms (trivially satisfied: 0 %a %g)" name pp_sense
            sense rhs
        else
          emit Error "empty-infeasible-row" ~row:i
            "row %s has no terms and is unsatisfiable: 0 %a %g" name pp_sense
            sense rhs
      | _ ->
        let lo, hi = activity_range lp norm in
        let infeasible =
          match sense with
          | Lp.Le -> lo > rhs
          | Lp.Ge -> hi < rhs
          | Lp.Eq -> lo > rhs || hi < rhs
        in
        let redundant =
          match sense with
          | Lp.Le -> hi <= rhs
          | Lp.Ge -> lo >= rhs
          | Lp.Eq -> lo = rhs && hi = rhs
        in
        if infeasible then
          emit Error "trivially-infeasible-row" ~row:i
            "row %s is infeasible by bound arithmetic: activity in [%g, %g] \
             cannot satisfy %a %g"
            name lo hi pp_sense sense rhs
        else if redundant then
          emit Info "trivially-redundant-row" ~row:i
            "row %s is implied by the variable bounds (activity in [%g, %g] \
             %a %g always holds)"
            name lo hi pp_sense sense rhs);
  (* ---- cross-row checks ------------------------------------------- *)
  List.iter
    (fun (name, rows) ->
      emit Warn "duplicate-row-name" ~row:(List.hd rows)
        "row name %s is used by rows %s" name
        (String.concat ", " (List.map string_of_int rows)))
    (Lp.duplicate_row_names lp);
  let sigs : (string, (int * Lp.sense * float) list) Hashtbl.t =
    Hashtbl.create (2 * nrows)
  in
  Lp.iter_rows lp (fun i terms sense rhs ->
      match signature (normalize terms) sense rhs with
      | None -> ()
      | Some (key, sense, srhs) -> (
        match Hashtbl.find_opt sigs key with
        | None -> Hashtbl.replace sigs key [ (i, sense, srhs) ]
        | Some seen ->
          (* compare against the first occurrence only: one finding per
             offending row, anchored to its earliest twin *)
          let j, _, srhs0 = List.nth seen (List.length seen - 1) in
          if Float.abs (srhs -. srhs0) <= 1e-9 then
            emit Warn "duplicate-row" ~row:i
              "row %s duplicates row %s (identical normalized terms and rhs)"
              (Lp.row_name lp i) (Lp.row_name lp j)
          else if sense = Lp.Eq then
            emit Error "contradictory-parallel-rows" ~row:i
              "equality row %s is proportional to row %s but with a \
               different right-hand side: the pair is infeasible"
              (Lp.row_name lp i) (Lp.row_name lp j)
          else
            emit Info "parallel-row" ~row:i
              "row %s is parallel to row %s (one of the two dominates)"
              (Lp.row_name lp i) (Lp.row_name lp j);
          Hashtbl.replace sigs key ((i, sense, srhs) :: seen)));
  (* ---- global checks ---------------------------------------------- *)
  let stats =
    let min_abs = if !nnz = 0 then 0. else !min_abs in
    let cond_ratio = if !nnz = 0 || min_abs = 0. then 1. else !max_abs /. min_abs in
    { nnz = !nnz; min_abs; max_abs = !max_abs; cond_ratio; rhs_max_abs = !rhs_max_abs }
  in
  if stats.cond_ratio > cond_limit then
    emit Warn "ill-conditioned"
      "coefficient magnitudes span [%g, %g]: ratio %.3g exceeds %g"
      stats.min_abs stats.max_abs stats.cond_ratio cond_limit;
  if nvars > 0 && Array.for_all (fun c -> c = 0.) obj then
    emit Info "zero-objective" "the objective is identically zero";
  let census =
    Hashtbl.fold (fun cls n acc -> (cls, n) :: acc) classes []
    |> List.sort (fun (a, _) (b, _) -> compare (class_rank a) (class_rank b))
  in
  {
    model = Lp.name lp;
    nvars;
    nrows;
    diagnostics = List.rev !diags;
    census;
    stats;
  }

(* The certificate family is the one diagnostic source that leaves the
   static sweep: it solves the LP relaxation once and re-checks the
   verdict in exact rational arithmetic ({!Certify}), optionally
   shrinking an infeasibility to an irreducible subsystem ({!Iis}). *)
let certificate_diagnostics ?(iis = false) lp =
  let diag ?row severity code message =
    { severity; code; message; row; var = None }
  in
  let _res, cert = Certify.check_lp lp in
  match (cert.Certify.verdict, cert.Certify.detail) with
  | Certify.Certified, Certify.Farkas_proof { witness_row; support; _ } ->
    let head =
      diag ~row:witness_row Error "certificate-infeasible"
        (Printf.sprintf
           "LP relaxation exactly infeasible: %s" (Certify.describe cert))
    in
    if not iis then [ head ]
    else begin
      match Iis.extract lp with
      | Iis.Iis r ->
        head
        :: List.map
             (fun (row, name) ->
               diag ~row Error "iis-row"
                 (Printf.sprintf
                    "row %s belongs to an irreducible infeasible subsystem \
                     (%d rows)"
                    name (List.length r.Iis.rows)))
             (List.combine r.Iis.rows r.Iis.names)
      | Iis.Feasible | Iis.Inconclusive _ ->
        (* the one-shot certificate stands even when the deletion
           filter cannot pin a minimal core *)
        head
        :: List.map
             (fun row -> diag ~row Warn "iis-row" "row supports the Farkas ray")
             support
    end
  | Certify.Certified, _ ->
    [ diag Info "certificate-optimal"
        (Printf.sprintf "LP relaxation certified: %s" (Certify.describe cert)) ]
  | Certify.Refuted, _ ->
    [ diag Error "certificate-refuted"
        (Printf.sprintf
           "float LP verdict contradicted by exact arithmetic: %s"
           (Certify.describe cert)) ]
  | Certify.Uncertifiable, _ ->
    [ diag Warn "certificate-unverified"
        (Printf.sprintf "LP verdict not certifiable: %s"
           (Certify.describe cert)) ]

let errors r = List.filter (fun d -> d.severity = Error) r.diagnostics

let is_clean r = errors r = []

let pp_diagnostic ppf d =
  Format.fprintf ppf "%s[%s]: %s" (severity_to_string d.severity) d.code
    d.message

let pp_report ppf r =
  Format.fprintf ppf "@[<v>model %s: %d vars, %d rows@," r.model r.nvars r.nrows;
  Format.fprintf ppf "row census:";
  List.iter
    (fun (cls, n) -> Format.fprintf ppf " %s %d" (row_class_to_string cls) n)
    r.census;
  Format.fprintf ppf "@,";
  Format.fprintf ppf
    "coefficients: %d nonzeros, |a| in [%g, %g] (ratio %.3g), max |rhs| %g@,"
    r.stats.nnz r.stats.min_abs r.stats.max_abs r.stats.cond_ratio
    r.stats.rhs_max_abs;
  (match r.diagnostics with
   | [] -> Format.fprintf ppf "no diagnostics"
   | ds ->
     let count s = List.length (List.filter (fun d -> d.severity = s) ds) in
     List.iter (fun d -> Format.fprintf ppf "%a@," pp_diagnostic d) ds;
     Format.fprintf ppf "%d error(s), %d warning(s), %d info" (count Error)
       (count Warn) (count Info));
  Format.fprintf ppf "@]"

(* ---- JSON --------------------------------------------------------- *)

let to_json r =
  let open Json in
  let int n = Num (Float.of_int n) in
  let opt key = function Some n -> [ (key, int n) ] | None -> [] in
  let diagnostic d =
    Obj
      ([
         ("severity", Str (severity_to_string d.severity));
         ("code", Str d.code);
         ("message", Str d.message);
       ]
      @ opt "row" d.row @ opt "var" d.var)
  in
  let s = r.stats in
  Obj
    [
      ("model", Str r.model);
      ("vars", int r.nvars);
      ("rows", int r.nrows);
      ( "census",
        Obj (List.map (fun (c, n) -> (row_class_to_string c, int n)) r.census) );
      ( "coefficients",
        Obj
          [
            ("nnz", int s.nnz);
            ("min_abs", Num s.min_abs);
            ("max_abs", Num s.max_abs);
            ("cond_ratio", Num s.cond_ratio);
            ("rhs_max_abs", Num s.rhs_max_abs);
          ] );
      ("diagnostics", Arr (List.map diagnostic r.diagnostics));
    ]
