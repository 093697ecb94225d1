(* Tests for the MILP presolve: redundancy removal, bound propagation,
   infeasibility proofs, integer rounding, and the key property that
   presolve preserves the optimum of random binary models. *)

module Lp = Ilp.Lp
module P = Ilp.Presolve
module Bb = Ilp.Branch_bound

let check_float = Alcotest.(check (float 1e-6))

let test_redundant_row_removed () =
  let lp = Lp.create () in
  let x = Lp.add_var lp Lp.Binary in
  let y = Lp.add_var lp Lp.Binary in
  (* x + y <= 5 can never bind for binaries *)
  ignore (Lp.add_constr lp [ (1., x); (1., y) ] Lp.Le 5.);
  ignore (Lp.add_constr lp [ (1., x); (1., y) ] Lp.Le 1.);
  match P.presolve lp with
  | P.Reduced (out, stats) ->
    Alcotest.(check int) "one row left" 1 (Lp.num_constrs out);
    Alcotest.(check int) "one removed" 1 stats.P.rows_removed
  | P.Infeasible m -> Alcotest.failf "unexpected infeasible: %s" m

let test_infeasible_detected () =
  let lp = Lp.create () in
  let x = Lp.add_var lp Lp.Binary in
  let y = Lp.add_var lp Lp.Binary in
  ignore (Lp.add_constr lp ~name:"too_big" [ (1., x); (1., y) ] Lp.Ge 3.);
  match P.presolve lp with
  | P.Infeasible m -> Alcotest.(check string) "witness" "too_big" m
  | P.Reduced _ -> Alcotest.fail "expected infeasible"

let test_singleton_tightens () =
  let lp = Lp.create () in
  let x = Lp.add_var lp ~ub:10. Lp.Continuous in
  ignore (Lp.add_constr lp [ (2., x) ] Lp.Le 6.);
  match P.presolve lp with
  | P.Reduced (out, _) ->
    check_float "ub tightened" 3. (Lp.var_ub out (Lp.var_of_int out 0));
    (* the row became redundant after tightening and a further pass *)
    Alcotest.(check int) "row dropped" 0 (Lp.num_constrs out)
  | P.Infeasible m -> Alcotest.failf "unexpected infeasible: %s" m

let test_integer_rounding () =
  let lp = Lp.create () in
  let x = Lp.add_var lp ~ub:9. Lp.Integer in
  ignore (Lp.add_constr lp [ (2., x) ] Lp.Le 7.);
  (match P.presolve lp with
   | P.Reduced (out, _) ->
     (* 2x <= 7 -> x <= 3.5 -> x <= 3 for integer x *)
     check_float "floor" 3. (Lp.var_ub out (Lp.var_of_int out 0))
   | P.Infeasible m -> Alcotest.failf "unexpected infeasible: %s" m);
  (* Ge side rounds up *)
  let lp2 = Lp.create () in
  let y = Lp.add_var lp2 ~ub:9. Lp.Integer in
  ignore (Lp.add_constr lp2 [ (2., y) ] Lp.Ge 3.);
  match P.presolve lp2 with
  | P.Reduced (out, _) ->
    check_float "ceil" 2. (Lp.var_lb out (Lp.var_of_int out 0))
  | P.Infeasible m -> Alcotest.failf "unexpected infeasible: %s" m

let test_fixing_by_propagation () =
  (* x + y >= 2 for binaries fixes both to 1 *)
  let lp = Lp.create () in
  let _x = Lp.add_var lp Lp.Binary in
  let _y = Lp.add_var lp Lp.Binary in
  ignore
    (Lp.add_constr lp
       [ (1., Lp.var_of_int lp 0); (1., Lp.var_of_int lp 1) ]
       Lp.Ge 2.);
  match P.presolve lp with
  | P.Reduced (out, stats) ->
    check_float "x fixed" 1. (Lp.var_lb out (Lp.var_of_int out 0));
    check_float "y fixed" 1. (Lp.var_lb out (Lp.var_of_int out 1));
    Alcotest.(check int) "2 fixed" 2 stats.P.vars_fixed
  | P.Infeasible m -> Alcotest.failf "unexpected infeasible: %s" m

let test_objective_preserved () =
  let lp = Lp.create () in
  let x = Lp.add_var lp Lp.Binary in
  let y = Lp.add_var lp Lp.Binary in
  ignore (Lp.add_constr lp [ (1., x); (1., y) ] Lp.Le 1.);
  ignore (Lp.add_constr lp [ (1., x); (1., y) ] Lp.Le 9.);
  Lp.set_objective lp ~maximize:true [ (3., x); (2., y) ];
  match P.presolve lp with
  | P.Reduced (out, _) ->
    (match Bb.solve out with
     | Bb.Optimal { obj; _ }, _ ->
       check_float "same optimum" 3. (Lp.obj_sign out *. obj)
     | o, _ -> Alcotest.failf "unexpected %a" Bb.pp_outcome o)
  | P.Infeasible m -> Alcotest.failf "unexpected infeasible: %s" m

(* property: presolve preserves the MILP optimum on random models *)
let make_rand_binary seed ~n ~m =
  let rng = Taskgraph.Prng.create seed in
  let lp = Lp.create () in
  let vars = Array.init n (fun _ -> Lp.add_var lp Lp.Binary) in
  for _ = 1 to m do
    let terms =
      Array.to_list vars
      |> List.filter_map (fun v ->
             if Taskgraph.Prng.bool rng 0.6 then
               Some (Float.of_int (Taskgraph.Prng.int_in rng (-3) 4), v)
             else None)
    in
    if terms <> [] then begin
      let rhs = Float.of_int (Taskgraph.Prng.int_in rng 0 6) in
      let sense = if Taskgraph.Prng.bool rng 0.8 then Lp.Le else Lp.Ge in
      ignore (Lp.add_constr lp terms sense rhs)
    end
  done;
  Lp.set_objective lp ~maximize:true
    (Array.to_list vars
    |> List.map (fun v -> (Float.of_int (Taskgraph.Prng.int_in rng (-5) 5), v)));
  lp

let prop_presolve_preserves_optimum =
  QCheck.Test.make ~name:"presolve preserves the MILP optimum" ~count:120
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let lp = make_rand_binary seed ~n:7 ~m:6 in
      let direct = Bb.solve lp in
      match P.presolve lp with
      | P.Infeasible _ -> (
        match direct with Bb.Infeasible, _ -> true | _ -> false)
      | P.Reduced (out, _) -> (
        let reduced = Bb.solve out in
        match (direct, reduced) with
        | (Bb.Optimal { obj = a; _ }, _), (Bb.Optimal { obj = b; _ }, _) ->
          Float.abs (a -. b) <= 1e-6
        | (Bb.Infeasible, _), (Bb.Infeasible, _) -> true
        | _ -> false))

(* Stronger than objective equality: the vector solved on the REDUCED
   model must be feasible for the ORIGINAL model variable by variable,
   and score the same there (optima need not be unique, so vectors are
   compared through the original model, not bitwise). The same shape is
   applied to the node deductions in test_propagate.ml. *)
let prop_presolve_preserves_solutions =
  QCheck.Test.make
    ~name:"presolved solutions stay feasible and optimal per variable"
    ~count:100
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let lp = make_rand_binary seed ~n:8 ~m:7 in
      match P.presolve lp with
      | P.Infeasible _ -> true (* covered by the feasible-points property *)
      | P.Reduced (out, _) -> (
        match (Bb.solve lp, Bb.solve out) with
        | (Bb.Optimal { obj = a; x = xa }, _), (Bb.Optimal { obj = b; x = xb }, _)
          ->
          Float.abs (a -. b) <= 1e-6
          && Array.length xa = Array.length xb
          && Ilp.Feas_check.is_feasible lp xb
          && Float.abs
               (Ilp.Feas_check.objective_value lp xa
               -. Ilp.Feas_check.objective_value lp xb)
             <= 1e-6
        | (Bb.Infeasible, _), (Bb.Infeasible, _) -> true
        | _ -> false))

let prop_presolve_never_cuts_feasible_points =
  QCheck.Test.make ~name:"presolve keeps every feasible binary point"
    ~count:80
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let n = 6 in
      let lp = make_rand_binary seed ~n ~m:5 in
      match P.presolve lp with
      | P.Infeasible _ ->
        (* then no binary point may be feasible *)
        let any = ref false in
        for code = 0 to (1 lsl n) - 1 do
          let x = Array.init n (fun j -> Float.of_int ((code lsr j) land 1)) in
          if Ilp.Feas_check.is_feasible lp x then any := true
        done;
        not !any
      | P.Reduced (out, _) ->
        (* every point feasible for the original stays feasible *)
        let ok = ref true in
        for code = 0 to (1 lsl n) - 1 do
          let x = Array.init n (fun j -> Float.of_int ((code lsr j) land 1)) in
          if
            Ilp.Feas_check.is_feasible lp x
            && not (Ilp.Feas_check.is_feasible out x)
          then ok := false
        done;
        !ok)

(* Mixed-kind random models: binaries, bounded integers and
   continuous variables, all three row senses, named rows. *)
let make_rand_mixed seed ~n ~m =
  let rng = Taskgraph.Prng.create (seed + 7) in
  let lp = Lp.create ~name:"mixed" () in
  let vars =
    Array.init n (fun j ->
        let name = Printf.sprintf "v%d" j in
        match Taskgraph.Prng.int rng 3 with
        | 0 -> Lp.add_var lp ~name Lp.Binary
        | 1 ->
          Lp.add_var lp ~name ~lb:(Float.of_int (Taskgraph.Prng.int_in rng (-2) 0))
            ~ub:(Float.of_int (Taskgraph.Prng.int_in rng 1 5)) Lp.Integer
        | _ ->
          Lp.add_var lp ~name ~ub:(Float.of_int (Taskgraph.Prng.int_in rng 1 6))
            Lp.Continuous)
  in
  for i = 1 to m do
    let terms =
      Array.to_list vars
      |> List.filter_map (fun v ->
             if Taskgraph.Prng.bool rng 0.5 then
               Some (Float.of_int (Taskgraph.Prng.int_in rng (-3) 4), v)
             else None)
    in
    if terms <> [] then begin
      let sense =
        match Taskgraph.Prng.int rng 3 with 0 -> Lp.Le | 1 -> Lp.Ge | _ -> Lp.Eq
      in
      let rhs = Float.of_int (Taskgraph.Prng.int_in rng (-2) 8) in
      ignore (Lp.add_constr lp ~name:(Printf.sprintf "r%d" i) terms sense rhs)
    end
  done;
  Lp.set_objective lp ~maximize:(Taskgraph.Prng.bool rng 0.5)
    (Array.to_list vars
    |> List.map (fun v -> (Float.of_int (Taskgraph.Prng.int_in rng (-5) 5), v)));
  lp

(* The reduced model is the original restricted to its kept rows: it
   writes exactly like a model rebuilt through the public [Lp] API from
   the rows [row_map] names (in order, with their names), the reduced
   bounds, [Binary] re-declared [Integer] and the original objective.
   Each reduced bound lies inside the original one, and [row_map] is
   strictly increasing. *)
let prop_reduced_model_is_a_restriction =
  QCheck.Test.make ~name:"reduced model writes like a public-API rebuild"
    ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let lp = make_rand_mixed seed ~n:7 ~m:7 in
      let before = Ilp.Lp_format.to_string lp in
      match P.presolve lp with
      | P.Infeasible _ -> Ilp.Lp_format.to_string lp = before
      | P.Reduced (out, stats) ->
        let n = Lp.num_vars lp in
        let rb = Lp.create ~name:(Lp.name lp) () in
        for j = 0 to n - 1 do
          let v = Lp.var_of_int lp j and w = Lp.var_of_int out j in
          ignore
            (Lp.add_var rb ~name:(Lp.var_name lp v) ~lb:(Lp.var_lb out w)
               ~ub:(Lp.var_ub out w)
               (match Lp.var_kind lp v with
                | Lp.Binary -> Lp.Integer
                | k -> k))
        done;
        Array.iter
          (fun i ->
            let terms, sense, rhs = Lp.row lp i in
            ignore (Lp.add_constr rb ~name:(Lp.row_name lp i) terms sense rhs))
          stats.P.row_map;
        let sign = Lp.obj_sign lp in
        Lp.set_objective rb ~maximize:(sign < 0.)
          (List.init n (fun j -> ((Lp.objective lp).(j) *. sign, Lp.var_of_int rb j)));
        let inside j =
          let v = Lp.var_of_int lp j in
          Lp.var_lb out v >= Lp.var_lb lp v && Lp.var_ub out v <= Lp.var_ub lp v
        in
        let rec increasing k =
          k + 1 >= Array.length stats.P.row_map
          || (stats.P.row_map.(k) < stats.P.row_map.(k + 1) && increasing (k + 1))
        in
        Ilp.Lp_format.to_string out = Ilp.Lp_format.to_string rb
        && Lp.num_constrs out = Lp.num_constrs lp - stats.P.rows_removed
        && Array.length stats.P.row_map = Lp.num_constrs out
        && increasing 0
        && List.for_all inside (List.init n Fun.id)
        && Ilp.Lp_format.to_string lp = before)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "presolve"
    [
      ( "unit",
        [
          Alcotest.test_case "redundant row" `Quick test_redundant_row_removed;
          Alcotest.test_case "infeasible" `Quick test_infeasible_detected;
          Alcotest.test_case "singleton" `Quick test_singleton_tightens;
          Alcotest.test_case "integer rounding" `Quick test_integer_rounding;
          Alcotest.test_case "fixing" `Quick test_fixing_by_propagation;
          Alcotest.test_case "objective preserved" `Quick
            test_objective_preserved;
        ] );
      ( "properties",
        [ qt prop_presolve_preserves_optimum;
          qt prop_presolve_preserves_solutions;
          qt prop_presolve_never_cuts_feasible_points;
          qt prop_reduced_model_is_a_restriction ] );
    ]
