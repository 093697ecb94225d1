module G = Taskgraph.Graph

type fu_kind = {
  fu_name : string;
  executes : G.op_kind list;
  fg : int;
  delay_ns : float;
  latency : int;
  pipelined : bool;
}

type library = fu_kind list

let mk name executes fg delay_ns =
  { fu_name = name; executes; fg; delay_ns; latency = 1; pipelined = true }

let default_library =
  [
    mk "add16" [ G.Add ] 20 25.;
    mk "sub16" [ G.Sub ] 20 27.;
    mk "alu16" [ G.Add; G.Sub ] 28 32.;
    mk "mul16" [ G.Mul ] 60 80.;
    mk "mul16s" [ G.Mul ] 40 120.;
    mk "div16" [ G.Div ] 90 150.;
    mk "cmp16" [ G.Cmp ] 12 18.;
    (* multicycle / pipelined variants (Section 3.3 extension): a
       two-stage pipelined multiplier that accepts a new operand pair
       every step, and a compact sequential multiplier and divider that
       block their unit while computing *)
    { fu_name = "mul16p2"; executes = [ G.Mul ]; fg = 48; delay_ns = 45.;
      latency = 2; pipelined = true };
    { fu_name = "mul16seq"; executes = [ G.Mul ]; fg = 26; delay_ns = 60.;
      latency = 3; pipelined = false };
    { fu_name = "div16seq"; executes = [ G.Div ]; fg = 40; delay_ns = 70.;
      latency = 4; pipelined = false };
  ]

let find lib name = List.find (fun k -> k.fu_name = name) lib

let can_execute k op = List.mem op k.executes

let kinds_for lib op = List.filter (fun k -> can_execute k op) lib

type allocation = (fu_kind * int) list

type instance = { inst_kind : fu_kind; inst_id : int }

let instances alloc =
  List.iter
    (fun (_, n) -> if n <= 0 then invalid_arg "Component.instances: count <= 0")
    alloc;
  let l =
    List.concat_map (fun (k, n) -> List.init n (fun _ -> k)) alloc
  in
  Array.of_list (List.mapi (fun i k -> { inst_kind = k; inst_id = i }) l)

let total_fg alloc = List.fold_left (fun acc (k, n) -> acc + (n * k.fg)) 0 alloc

let ams (a, m, s) =
  let entry name n = if n > 0 then [ (find default_library name, n) ] else [] in
  entry "add16" a @ entry "mul16" m @ entry "sub16" s

let covers alloc g =
  let insts = instances alloc in
  List.for_all
    (fun (op, _) -> Array.exists (fun i -> can_execute i.inst_kind op) insts)
    (G.kind_counts g)

let pp_allocation ppf alloc =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf "+")
    (fun ppf (k, n) -> Format.fprintf ppf "%d*%s" n k.fu_name)
    ppf alloc
