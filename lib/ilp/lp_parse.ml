(* Tokenizing line-based parser for the LP dialect of Lp_format. *)

type token =
  | Name of string
  | Num of float
  | Plus
  | Minus
  | Op of Lp.sense
  | Colon

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_'

let is_num_start c = (c >= '0' && c <= '9') || c = '.'

let tokenize line_no line =
  let n = String.length line in
  let toks = ref [] in
  let i = ref 0 in
  let fail fmt =
    Format.kasprintf
      (fun m -> invalid_arg (Printf.sprintf "Lp_parse: line %d: %s" line_no m))
      fmt
  in
  while !i < n do
    let c = line.[!i] in
    if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '\\' then i := n (* comment *)
    else if c = '+' then begin
      toks := Plus :: !toks;
      incr i
    end
    else if c = '-' then
      (* "-inf" in bounds, otherwise minus *)
      if !i + 4 <= n && String.sub line !i 4 = "-inf" then begin
        toks := Num Float.neg_infinity :: !toks;
        i := !i + 4
      end
      else begin
        toks := Minus :: !toks;
        incr i
      end
    else if c = ':' then begin
      toks := Colon :: !toks;
      incr i
    end
    else if c = '<' || c = '>' || c = '=' then begin
      let sense =
        match c with '<' -> Lp.Le | '>' -> Lp.Ge | _ -> Lp.Eq
      in
      toks := Op sense :: !toks;
      incr i;
      if !i < n && line.[!i] = '=' then incr i
    end
    else if is_num_start c then begin
      let j = ref !i in
      while
        !j < n
        && ((line.[!j] >= '0' && line.[!j] <= '9')
            || line.[!j] = '.' || line.[!j] = 'e' || line.[!j] = 'E'
            || (!j > !i
                && (line.[!j] = '+' || line.[!j] = '-')
                && (line.[!j - 1] = 'e' || line.[!j - 1] = 'E')))
      do
        incr j
      done;
      (match float_of_string_opt (String.sub line !i (!j - !i)) with
       | Some v -> toks := Num v :: !toks
       | None -> fail "bad number %S" (String.sub line !i (!j - !i)));
      i := !j
    end
    else if is_name_char c then begin
      let j = ref !i in
      while !j < n && is_name_char line.[!j] do
        incr j
      done;
      let word = String.sub line !i (!j - !i) in
      i := !j;
      match String.lowercase_ascii word with
      | "inf" | "infinity" -> toks := Num Float.infinity :: !toks
      | "free" -> toks := Name "free" :: !toks
      | _ -> toks := Name word :: !toks
    end
    else fail "unexpected character %C" c
  done;
  List.rev !toks

type section = Obj | Rows | Bounds | General | Binary_s | Done

(* parse a linear expression given a name->var resolver; returns terms
   and the remaining tokens *)
let parse_linear line_no resolve toks =
  let fail fmt =
    Format.kasprintf
      (fun m -> invalid_arg (Printf.sprintf "Lp_parse: line %d: %s" line_no m))
      fmt
  in
  let rec go acc sign toks =
    match toks with
    | Plus :: rest -> go acc 1. rest
    | Minus :: rest -> go acc (sign *. -1.) rest
    | Num c :: Name v :: rest -> go ((sign *. c, resolve v) :: acc) 1. rest
    | Name v :: rest -> go ((sign, resolve v) :: acc) 1. rest
    | Num _ :: _ | Op _ :: _ | [] | Colon :: _ -> (List.rev acc, sign, toks)
  in
  let terms, _, rest = go [] 1. toks in
  if terms = [] then fail "empty linear expression";
  (terms, rest)

let of_string text =
  let lines = String.split_on_char '\n' text in
  (* first pass: collect variable names in first-appearance order and
     integrality/bounds info *)
  let var_names = Hashtbl.create 64 in
  let order = ref [] in
  let note_name name =
    if
      (not (Hashtbl.mem var_names name))
      && name <> "free"
    then begin
      Hashtbl.add var_names name ();
      order := name :: !order
    end
  in
  let section = ref Obj in
  let classify line =
    match String.lowercase_ascii (String.trim line) with
    | "minimize" | "maximize" -> Some Obj
    | "subject to" | "st" | "s.t." -> Some Rows
    | "bounds" -> Some Bounds
    | "general" | "generals" -> Some General
    | "binary" | "binaries" -> Some Binary_s
    | "end" -> Some Done
    | _ -> None
  in
  List.iteri
    (fun idx line ->
      let line_no = idx + 1 in
      match classify line with
      | Some s -> section := s
      | None ->
        (match !section with
         | Obj | Rows ->
           List.iter
             (function
               | Name n when n <> "free" -> note_name n
               | _ -> ())
             (let toks = tokenize line_no line in
              (* drop a leading label "name :" *)
              match toks with
              | Name _ :: Colon :: rest -> rest
              | _ -> toks)
         | Bounds | General | Binary_s ->
           (* variables may first appear here (zero objective, no rows) *)
           List.iter
             (function
               | Name n when n <> "free" -> note_name n
               | _ -> ())
             (tokenize line_no line)
         | Done -> ()))
    lines;
  let lp = Lp.create ~name:"parsed" () in
  let vars = Hashtbl.create 64 in
  List.iter
    (fun name ->
      Hashtbl.replace vars name (Lp.add_var lp ~name Lp.Continuous))
    (List.rev !order);
  let resolve line_no name =
    match Hashtbl.find_opt vars name with
    | Some v -> v
    | None ->
      invalid_arg
        (Printf.sprintf "Lp_parse: line %d: unknown variable %S" line_no name)
  in
  (* second pass: build *)
  let section = ref Obj in
  let maximize = ref false in
  let obj_terms = ref [] in
  let binaries = ref [] in
  List.iteri
    (fun idx line ->
      let line_no = idx + 1 in
      let fail fmt =
        Format.kasprintf
          (fun m ->
            invalid_arg (Printf.sprintf "Lp_parse: line %d: %s" line_no m))
          fmt
      in
      match classify line with
      | Some s ->
        (match String.lowercase_ascii (String.trim line) with
         | "maximize" -> maximize := true
         | _ -> ());
        section := s
      | None -> (
        let toks = tokenize line_no line in
        if toks <> [] then
          match !section with
          | Obj ->
            let toks =
              match toks with Name _ :: Colon :: rest -> rest | _ -> toks
            in
            let terms, rest = parse_linear line_no (resolve line_no) toks in
            if rest <> [] then fail "trailing tokens in objective";
            obj_terms := !obj_terms @ terms
          | Rows ->
            let name, toks =
              match toks with
              | Name n :: Colon :: rest -> (Some n, rest)
              | _ -> (None, toks)
            in
            let terms, rest = parse_linear line_no (resolve line_no) toks in
            (match rest with
             | [ Op sense; Num rhs ] ->
               ignore (Lp.add_constr lp ?name terms sense rhs)
             | [ Op sense; Minus; Num rhs ] ->
               ignore (Lp.add_constr lp ?name terms sense (-.rhs))
             | _ -> fail "expected <sense> <rhs>")
          | Bounds -> (
            match toks with
            | [ Name v; Name "free" ] | [ Name "free"; Name v ] ->
              Lp.set_bounds lp (resolve line_no v) ~lb:Float.neg_infinity
                ~ub:Float.infinity
            | [ Name v; Op Lp.Ge; Num lo ] ->
              let v = resolve line_no v in
              Lp.set_bounds lp v ~lb:lo ~ub:(Lp.var_ub lp v)
            | [ Name v; Op Lp.Le; Num hi ] ->
              let v = resolve line_no v in
              Lp.set_bounds lp v ~lb:(Lp.var_lb lp v) ~ub:hi
            | [ Num lo; Op Lp.Le; Name v; Op Lp.Le; Num hi ] ->
              Lp.set_bounds lp (resolve line_no v) ~lb:lo ~ub:hi
            | [ Minus; Num lo; Op Lp.Le; Name v; Op Lp.Le; Num hi ] ->
              Lp.set_bounds lp (resolve line_no v) ~lb:(-.lo) ~ub:hi
            | [ Name v; Op Lp.Eq; Num x ] ->
              Lp.set_bounds lp (resolve line_no v) ~lb:x ~ub:x
            | _ -> fail "unsupported bounds syntax")
          | General -> (
            match toks with
            | [ Name v ] ->
              (* switch kind to Integer, preserving bounds: rebuild is
                 impossible in-place, so record and rebuild below *)
              binaries := (`General, v) :: !binaries
            | _ -> fail "expected one variable per General line")
          | Binary_s -> (
            match toks with
            | [ Name v ] -> binaries := (`Binary, v) :: !binaries
            | _ -> fail "expected one variable per Binary line")
          | Done -> fail "tokens after End"))
    lines;
  (* rebuild with correct kinds (Lp kinds are fixed at add_var time) *)
  let out = Lp.create ~name:"parsed" () in
  let kind_of name =
    match
      List.find_opt (fun (_, v) -> v = name) !binaries
    with
    | Some (`Binary, _) -> Lp.Binary
    | Some (`General, _) -> Lp.Integer
    | None -> Lp.Continuous
  in
  let mapping = Hashtbl.create 64 in
  for j = 0 to Lp.num_vars lp - 1 do
    let v = Lp.var_of_int lp j in
    let name = Lp.var_name lp v in
    let v' =
      Lp.add_var out ~name ~lb:(Lp.var_lb lp v) ~ub:(Lp.var_ub lp v)
        (kind_of name)
    in
    Hashtbl.replace mapping j v'
  done;
  Lp.iter_rows lp (fun i terms sense rhs ->
      ignore
        (Lp.add_constr out ~name:(Lp.row_name lp i)
           (List.map
              (fun (c, v) -> (c, Hashtbl.find mapping (v : Lp.var :> int)))
              terms)
           sense rhs));
  Lp.set_objective out ~maximize:!maximize
    (List.map
       (fun (c, v) -> (c, Hashtbl.find mapping (v : Lp.var :> int)))
       !obj_terms);
  out

let roundtrip_equal a b =
  Lp.num_vars a = Lp.num_vars b
  && Lp.num_constrs a = Lp.num_constrs b
  && List.for_all
       (fun j ->
         let va = Lp.var_of_int a j and vb = Lp.var_of_int b j in
         Lp.var_name a va = Lp.var_name b vb
         && Lp.is_integer_var a va = Lp.is_integer_var b vb
         && Lp.var_lb a va = Lp.var_lb b vb
         && Lp.var_ub a va = Lp.var_ub b vb)
       (List.init (Lp.num_vars a) Fun.id)
  && List.for_all
       (fun i ->
         let ta, sa, ra = Lp.row a i and tb, sb, rb = Lp.row b i in
         sa = sb && ra = rb
         && List.map (fun (c, v) -> (c, (v : Lp.var :> int))) ta
            = List.map (fun (c, v) -> (c, (v : Lp.var :> int))) tb)
       (List.init (Lp.num_constrs a) Fun.id)
  && Lp.objective a = Lp.objective b
  && Lp.obj_sign a = Lp.obj_sign b
