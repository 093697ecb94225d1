type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printer                                                             *)
(* ------------------------------------------------------------------ *)

let escape_into b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let num_to_string v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else if Float.is_finite v then
    (* shortest representation that round-trips *)
    let s = Printf.sprintf "%.12g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v
  else if Float.is_nan v then "null"
  else if v > 0. then "1e999" (* clipped on re-parse; JSON has no inf *)
  else "-1e999"

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Num v -> Buffer.add_string b (num_to_string v)
  | Str s -> escape_into b s
  | Arr items ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        to_buffer b v)
      items;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        escape_into b k;
        Buffer.add_char b ':';
        to_buffer b v)
      fields;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

exception Fail of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          (if !pos >= n then fail "unterminated escape"
           else
             match s.[!pos] with
             | '"' -> Buffer.add_char b '"'; advance ()
             | '\\' -> Buffer.add_char b '\\'; advance ()
             | '/' -> Buffer.add_char b '/'; advance ()
             | 'b' -> Buffer.add_char b '\b'; advance ()
             | 'f' -> Buffer.add_char b '\012'; advance ()
             | 'n' -> Buffer.add_char b '\n'; advance ()
             | 'r' -> Buffer.add_char b '\r'; advance ()
             | 't' -> Buffer.add_char b '\t'; advance ()
             | 'u' ->
               advance ();
               if !pos + 4 > n then fail "truncated \\u escape";
               let hex = String.sub s !pos 4 in
               let code =
                 match int_of_string_opt ("0x" ^ hex) with
                 | Some c -> c
                 | None -> fail "bad \\u escape"
               in
               pos := !pos + 4;
               (* UTF-8 encode the code point (surrogates kept as-is
                  bytes — good enough for trace payloads) *)
               if code < 0x80 then Buffer.add_char b (Char.chr code)
               else if code < 0x800 then begin
                 Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                 Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
               end
               else begin
                 Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                 Buffer.add_char b
                   (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                 Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
               end
             | c -> fail (Printf.sprintf "bad escape %C" c));
          go ()
        | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    match float_of_string_opt tok with
    | Some v -> Num v
    | None -> fail (Printf.sprintf "bad number %S" tok)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ()
          | Some '}' -> advance ()
          | _ -> fail "expected ',' or '}'"
        in
        members ();
        Obj (List.rev !fields)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elements ()
          | Some ']' -> advance ()
          | _ -> fail "expected ',' or ']'"
        in
        elements ();
        Arr (List.rev !items)
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing content";
    v
  with
  | v -> Ok v
  | exception Fail (at, msg) ->
    Error (Printf.sprintf "at offset %d: %s" at msg)

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list = function Arr items -> items | _ -> []
let str = function Str s -> Some s | _ -> None
let num = function Num v -> Some v | _ -> None

let int = function
  | Num v when Float.is_integer v -> Some (int_of_float v)
  | _ -> None

let bool = function Bool b -> Some b | _ -> None

(* ------------------------------------------------------------------ *)
(* JSONL files                                                         *)
(* ------------------------------------------------------------------ *)

let load_lines ?hint path decode =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text ->
    let rec go n acc = function
      | [] -> Ok (List.rev acc)
      | line :: rest when String.trim line = "" -> go (n + 1) acc rest
      | line :: rest -> (
        let fail e = Error (Printf.sprintf "line %d: %s" n e) in
        match parse line with
        | Error e ->
          fail (match hint with None -> e | Some h -> Printf.sprintf "%s (%s)" e h)
        | Ok j -> (
          match decode j with
          | Ok x -> go (n + 1) (x :: acc) rest
          | Error e -> fail e))
    in
    go 1 [] (String.split_on_char '\n' text)
