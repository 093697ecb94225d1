let pp_coeff ppf ~first c name =
  if first then
    if c = 1. then Format.fprintf ppf "%s" name
    else if c = -1. then Format.fprintf ppf "- %s" name
    else Format.fprintf ppf "%g %s" c name
  else if c >= 0. then
    if c = 1. then Format.fprintf ppf " + %s" name
    else Format.fprintf ppf " + %g %s" c name
  else if c = -1. then Format.fprintf ppf " - %s" name
  else Format.fprintf ppf " - %g %s" (Float.abs c) name

let pp_linear lp ppf terms =
  (* merge duplicate variables first for stable output *)
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (c, v) ->
      let v = (v : Lp.var :> int) in
      match Hashtbl.find_opt tbl v with
      | None ->
        Hashtbl.add tbl v c;
        order := v :: !order
      | Some c0 -> Hashtbl.replace tbl v (c0 +. c))
    terms;
  let first = ref true in
  List.iter
    (fun v ->
      let c = Hashtbl.find tbl v in
      if c <> 0. then begin
        pp_coeff ppf ~first:!first c (Lp.var_name lp (Lp.var_of_int lp v));
        first := false
      end)
    (List.rev !order);
  if !first then Format.fprintf ppf "0 %s" (Lp.var_name lp (Lp.var_of_int lp 0))

let pp ppf lp =
  let sign = Lp.obj_sign lp in
  Format.fprintf ppf "\\ model: %s@." (Lp.name lp);
  Format.fprintf ppf "%s@."
    (if sign > 0. then "Minimize" else "Maximize");
  let obj = Lp.objective lp in
  let obj_terms = ref [] in
  Array.iteri
    (fun j c ->
      if c <> 0. then
        (* objective is stored minimization-oriented; undo the sign *)
        obj_terms := (sign *. c, Lp.var_of_int lp j) :: !obj_terms)
    obj;
  Format.fprintf ppf " obj: %a@." (pp_linear lp) (List.rev !obj_terms);
  Format.fprintf ppf "Subject To@.";
  Lp.iter_rows lp (fun i terms sense rhs ->
      let op = match sense with Lp.Le -> "<=" | Lp.Ge -> ">=" | Lp.Eq -> "=" in
      Format.fprintf ppf " %s: %a %s %g@." (Lp.row_name lp i) (pp_linear lp)
        terms op rhs);
  (* Bounds for non-default-bounded, non-binary variables. *)
  let bounds = ref [] in
  for j = 0 to Lp.num_vars lp - 1 do
    let v = Lp.var_of_int lp j in
    match Lp.var_kind lp v with
    | Lp.Binary -> ()
    | Lp.Continuous | Lp.Integer ->
      let lo = Lp.var_lb lp v and hi = Lp.var_ub lp v in
      if lo <> 0. || Float.is_finite hi then bounds := (v, lo, hi) :: !bounds
  done;
  if !bounds <> [] then begin
    Format.fprintf ppf "Bounds@.";
    List.iter
      (fun (v, lo, hi) ->
        let name = Lp.var_name lp v in
        if lo = Float.neg_infinity && hi = Float.infinity then
          Format.fprintf ppf " %s free@." name
        else if lo = Float.neg_infinity then
          Format.fprintf ppf " -inf <= %s <= %g@." name hi
        else if hi = Float.infinity then Format.fprintf ppf " %s >= %g@." name lo
        else Format.fprintf ppf " %g <= %s <= %g@." lo name hi)
      (List.rev !bounds)
  end;
  let generals = ref [] and binaries = ref [] in
  for j = 0 to Lp.num_vars lp - 1 do
    let v = Lp.var_of_int lp j in
    match Lp.var_kind lp v with
    | Lp.Integer -> generals := Lp.var_name lp v :: !generals
    | Lp.Binary -> binaries := Lp.var_name lp v :: !binaries
    | Lp.Continuous -> ()
  done;
  if !generals <> [] then begin
    Format.fprintf ppf "General@.";
    List.iter (Format.fprintf ppf " %s@.") (List.rev !generals)
  end;
  if !binaries <> [] then begin
    Format.fprintf ppf "Binary@.";
    List.iter (Format.fprintf ppf " %s@.") (List.rev !binaries)
  end;
  Format.fprintf ppf "End@."

let to_string lp = Format.asprintf "%a" pp lp

