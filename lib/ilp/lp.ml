type var = int

type kind = Continuous | Integer | Binary

type sense = Le | Ge | Eq

type linear = (float * var) list

type row = { r_name : string; r_terms : linear; r_sense : sense; r_rhs : float }

type t = {
  mutable model_name : string;
  mutable lbs : float array;
  mutable ubs : float array;
  mutable kinds : kind array;
  mutable names : string array;
  mutable nvars : int;
  mutable rows : row array;
  mutable nrows : int;
  mutable obj : float array;  (* minimization-oriented *)
  mutable sign : float;       (* +1 minimize, -1 maximize *)
}

let create ?(name = "lp") () =
  {
    model_name = name;
    lbs = Array.make 16 0.;
    ubs = Array.make 16 0.;
    kinds = Array.make 16 Continuous;
    names = Array.make 16 "";
    nvars = 0;
    rows = [||];
    nrows = 0;
    obj = Array.make 16 0.;
    sign = 1.;
  }

let name t = t.model_name

let grow_vars t =
  let cap = Array.length t.lbs in
  if t.nvars >= cap then begin
    let ncap = (2 * cap) + 1 in
    let extend a fill =
      let b = Array.make ncap fill in
      Array.blit a 0 b 0 cap;
      b
    in
    t.lbs <- extend t.lbs 0.;
    t.ubs <- extend t.ubs 0.;
    t.kinds <- extend t.kinds Continuous;
    t.names <- extend t.names "";
    t.obj <- extend t.obj 0.
  end

let add_var t ?name ?(lb = 0.) ?(ub = Float.infinity) kind =
  grow_vars t;
  let v = t.nvars in
  let lb, ub = match kind with Binary -> (0., 1.) | Continuous | Integer -> (lb, ub) in
  if lb > ub then invalid_arg "Lp.add_var: lb > ub";
  t.lbs.(v) <- lb;
  t.ubs.(v) <- ub;
  t.kinds.(v) <- kind;
  t.names.(v) <- (match name with Some n -> n | None -> Printf.sprintf "x%d" v);
  t.obj.(v) <- 0.;
  t.nvars <- t.nvars + 1;
  v

let check_var t v =
  if v < 0 || v >= t.nvars then invalid_arg "Lp: variable out of range"

let add_constr t ?name terms sense rhs =
  if terms = [] then invalid_arg "Lp.add_constr: empty term list";
  List.iter (fun (_, v) -> check_var t v) terms;
  let cap = Array.length t.rows in
  if t.nrows >= cap then begin
    let ncap = (2 * cap) + 1 in
    let dummy = { r_name = ""; r_terms = []; r_sense = Le; r_rhs = 0. } in
    let b = Array.make ncap dummy in
    Array.blit t.rows 0 b 0 cap;
    t.rows <- b
  end;
  let r = t.nrows in
  let r_name = match name with Some n -> n | None -> Printf.sprintf "c%d" r in
  t.rows.(r) <- { r_name; r_terms = terms; r_sense = sense; r_rhs = rhs };
  t.nrows <- t.nrows + 1;
  r

let set_objective t ?(maximize = false) terms =
  Array.fill t.obj 0 (Array.length t.obj) 0.;
  t.sign <- (if maximize then -1. else 1.);
  List.iter
    (fun (c, v) ->
      check_var t v;
      t.obj.(v) <- t.obj.(v) +. (t.sign *. c))
    terms

let obj_sign t = t.sign

let num_vars t = t.nvars

let num_constrs t = t.nrows

let var_name t v =
  check_var t v;
  t.names.(v)

let var_lb t v =
  check_var t v;
  t.lbs.(v)

let var_ub t v =
  check_var t v;
  t.ubs.(v)

let var_kind t v =
  check_var t v;
  t.kinds.(v)

let set_bounds t v ~lb ~ub =
  check_var t v;
  if lb > ub then invalid_arg "Lp.set_bounds: lb > ub";
  t.lbs.(v) <- lb;
  t.ubs.(v) <- ub

let is_integer_var t v =
  match var_kind t v with Integer | Binary -> true | Continuous -> false

let integer_vars t =
  let acc = ref [] in
  for v = t.nvars - 1 downto 0 do
    if is_integer_var t v then acc := v :: !acc
  done;
  !acc

let objective t = Array.sub t.obj 0 t.nvars

let row t i =
  if i < 0 || i >= t.nrows then invalid_arg "Lp.row: out of range";
  let r = t.rows.(i) in
  (r.r_terms, r.r_sense, r.r_rhs)

let row_name t i =
  if i < 0 || i >= t.nrows then invalid_arg "Lp.row_name: out of range";
  t.rows.(i).r_name

let duplicate_row_names t =
  let seen = Hashtbl.create (2 * t.nrows) in
  for i = 0 to t.nrows - 1 do
    let n = t.rows.(i).r_name in
    Hashtbl.replace seen n (i :: Option.value ~default:[] (Hashtbl.find_opt seen n))
  done;
  Hashtbl.fold
    (fun n rows acc ->
      match rows with
      | [] | [ _ ] -> acc
      | _ -> (n, List.rev rows) :: acc)
    seen []
  |> List.sort (fun (_, a) (_, b) -> compare a b)

let iter_rows t f =
  for i = 0 to t.nrows - 1 do
    let r = t.rows.(i) in
    f i r.r_terms r.r_sense r.r_rhs
  done

let var_of_int t i =
  check_var t i;
  i

let eval_linear terms x =
  List.fold_left (fun acc (c, v) -> acc +. (c *. x.(v))) 0. terms

let copy t =
  {
    model_name = t.model_name;
    lbs = Array.copy t.lbs;
    ubs = Array.copy t.ubs;
    kinds = Array.copy t.kinds;
    names = Array.copy t.names;
    nvars = t.nvars;
    rows = Array.copy t.rows;
    nrows = t.nrows;
    obj = Array.copy t.obj;
    sign = t.sign;
  }

let restrict t ~rows ~lb ~ub =
  let n = t.nvars in
  if Array.length lb <> n || Array.length ub <> n then
    invalid_arg "Lp.restrict: bound arrays of the wrong length";
  for v = 0 to n - 1 do
    if lb.(v) > ub.(v) then invalid_arg "Lp.restrict: lb > ub"
  done;
  {
    model_name = t.model_name;
    lbs = Array.copy lb;
    ubs = Array.copy ub;
    kinds =
      Array.init n (fun v ->
          match t.kinds.(v) with Binary -> Integer | k -> k);
    names = Array.sub t.names 0 n;
    nvars = n;
    rows =
      Array.map
        (fun i ->
          if i < 0 || i >= t.nrows then
            invalid_arg "Lp.restrict: row out of range";
          t.rows.(i))
        rows;
    nrows = Array.length rows;
    obj = Array.sub t.obj 0 n;
    sign = t.sign;
  }

let pp_stats ppf t =
  let nint =
    let c = ref 0 in
    for v = 0 to t.nvars - 1 do
      if is_integer_var t v then incr c
    done;
    !c
  in
  Format.fprintf ppf "%s: %d vars (%d integer), %d constraints" t.model_name
    t.nvars nint t.nrows
