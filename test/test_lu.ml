(* Tests for the sparse LU kernel: factor/solve round-trips on random,
   singular-leaning and ill-conditioned bases, and agreement of eta-file
   updates with fresh factorizations of the exchanged basis. *)

module Sparse = Ilp.Sparse
module Lu = Ilp.Lu
module Prng = Taskgraph.Prng

let csc_of_dense (a : float array array) =
  let m = Array.length a in
  let cols =
    Array.init m (fun j ->
        Sparse.of_assoc
          (List.filter_map
             (fun i -> if a.(i).(j) <> 0. then Some (i, a.(i).(j)) else None)
             (List.init m Fun.id)))
  in
  Sparse.Csc.of_columns ~nrows:m cols

let identity_basis m = Array.init m Fun.id

(* b = B x for slot-indexed x (column j of B is mat column basis.(j)) *)
let apply mat basis x =
  let b = Array.make (Array.length basis) 0. in
  Array.iteri
    (fun j bj -> Sparse.Csc.add_col_to_dense ~scale:x.(j) mat bj b)
    basis;
  b

(* c with c_j = column basis.(j) . y for row-indexed y *)
let apply_t mat basis y =
  Array.map (fun bj -> Sparse.Csc.dot_col_dense mat bj y) basis

let max_abs_diff a b =
  let acc = ref 0. in
  Array.iteri (fun i v -> acc := Float.max !acc (Float.abs (v -. b.(i)))) a;
  !acc

(* Random sparse matrix, diagonally bumped so it is comfortably
   nonsingular; ~30% off-diagonal density. *)
let random_matrix rng m =
  let a = Array.make_matrix m m 0. in
  for i = 0 to m - 1 do
    for j = 0 to m - 1 do
      if i = j then a.(i).(j) <- 4. +. Prng.float rng
      else if Prng.bool rng 0.3 then
        a.(i).(j) <- Float.of_int (Prng.int_in rng (-3) 3)
    done
  done;
  a

let roundtrip_once ?(tol = 1e-8) a =
  let m = Array.length a in
  let mat = csc_of_dense a in
  let basis = identity_basis m in
  let lu = Lu.factor mat basis in
  let rng = Prng.create 99 in
  let x_true = Array.init m (fun _ -> Prng.float rng -. 0.5) in
  (* ftran: B x = b *)
  let b = apply mat basis x_true in
  Lu.ftran lu b;
  Alcotest.(check bool)
    "ftran recovers x" true
    (max_abs_diff b x_true <= tol);
  (* btran: B^T y = c *)
  let y_true = Array.init m (fun _ -> Prng.float rng -. 0.5) in
  let c = apply_t mat basis y_true in
  Lu.btran lu c;
  Alcotest.(check bool)
    "btran recovers y" true
    (max_abs_diff c y_true <= tol)

let test_roundtrip_random () =
  for seed = 1 to 20 do
    let rng = Prng.create seed in
    let m = 1 + Prng.int rng 25 in
    roundtrip_once (random_matrix rng m)
  done

let test_roundtrip_permutation () =
  (* a permutation matrix exercises the pivot bookkeeping with no
     arithmetic at all *)
  let m = 7 in
  let a = Array.make_matrix m m 0. in
  for i = 0 to m - 1 do
    a.(i).((i + 3) mod m) <- 1.
  done;
  roundtrip_once a

let test_singular_raises () =
  (* two identical columns *)
  let a = [| [| 1.; 1.; 0. |]; [| 2.; 2.; 1. |]; [| 0.; 0.; 3. |] |] in
  Alcotest.check_raises "duplicate columns" Lu.Singular (fun () ->
      ignore (Lu.factor (csc_of_dense a) (identity_basis 3)));
  (* an exactly zero column *)
  let z = [| [| 1.; 0. |]; [| 0.; 0. |] |] in
  Alcotest.check_raises "zero column" Lu.Singular (fun () ->
      ignore (Lu.factor (csc_of_dense z) (identity_basis 2)))

let test_singular_leaning () =
  (* a column that is a near-copy of another: the factorization must
     survive and keep a small backward error even though the matrix is
     close to rank-deficient *)
  let eps = 1e-7 in
  let a =
    [|
      [| 1.; 1. +. eps; 0. |];
      [| 2.; 2.; 1. |];
      [| 0.; eps; 3. |];
    |]
  in
  let mat = csc_of_dense a in
  let basis = identity_basis 3 in
  let lu = Lu.factor mat basis in
  let rng = Prng.create 5 in
  let x_true = Array.init 3 (fun _ -> Prng.float rng -. 0.5) in
  let b0 = apply mat basis x_true in
  let x = Array.copy b0 in
  Lu.ftran lu x;
  (* check backward error (residual), not forward error: the condition
     number ~1/eps legitimately amplifies the solution perturbation *)
  let b1 = apply mat basis x in
  Alcotest.(check bool)
    "small residual near singularity" true
    (max_abs_diff b0 b1 <= 1e-6)

let test_ill_conditioned_scales () =
  (* rows spanning 10 orders of magnitude: threshold pivoting must not
     pick a tiny pivot and destroy the round-trip *)
  let m = 6 in
  let rng = Prng.create 11 in
  let a = random_matrix rng m in
  for j = 0 to m - 1 do
    let s = Float.pow 10. (Float.of_int (-2 * j)) in
    for i = 0 to m - 1 do
      a.(i).(j) <- a.(i).(j) *. s
    done
  done;
  let mat = csc_of_dense a in
  let basis = identity_basis m in
  let lu = Lu.factor mat basis in
  let x_true = Array.init m (fun k -> Float.of_int (k + 1)) in
  let b0 = apply mat basis x_true in
  let x = Array.copy b0 in
  Lu.ftran lu x;
  let b1 = apply mat basis x in
  let scale = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 1. b0 in
  Alcotest.(check bool)
    "relative residual" true
    (max_abs_diff b0 b1 /. scale <= 1e-9)

let test_eta_vs_fresh () =
  (* Column exchanges through the eta file must agree with a fresh
     factorization of the exchanged basis, for both solve directions. *)
  for seed = 1 to 10 do
    let rng = Prng.create (1000 + seed) in
    let m = 4 + Prng.int rng 12 in
    (* matrix with 2m columns so exchanges have spare columns to pull in;
       columns m..2m-1 are random sparse vectors with a safe diagonal *)
    let a = Array.make_matrix m (2 * m) 0. in
    let base = random_matrix rng m in
    for i = 0 to m - 1 do
      for j = 0 to m - 1 do
        a.(i).(j) <- base.(i).(j)
      done
    done;
    for j = m to (2 * m) - 1 do
      a.(j - m).(j) <- 3. +. Prng.float rng;
      for i = 0 to m - 1 do
        if i <> j - m && Prng.bool rng 0.3 then
          a.(i).(j) <- Float.of_int (Prng.int_in rng (-2) 2)
      done
    done;
    let cols =
      Array.init (2 * m) (fun j ->
          Sparse.of_assoc
            (List.filter_map
               (fun i -> if a.(i).(j) <> 0. then Some (i, a.(i).(j)) else None)
               (List.init m Fun.id)))
    in
    let mat = Sparse.Csc.of_columns ~nrows:m cols in
    let basis = identity_basis m in
    let lu = Lu.factor mat basis in
    (* perform a handful of exchanges: slot k takes column m + k *)
    let exchanges = 1 + Prng.int rng (Int.min m 6) in
    for k = 0 to exchanges - 1 do
      let entering = m + k in
      let w = Array.make m 0. in
      Sparse.Csc.iter_col mat entering (fun r v -> w.(r) <- v);
      Lu.ftran lu w;
      Lu.update lu ~w ~r:k;
      basis.(k) <- entering
    done;
    Alcotest.(check int) "eta count" exchanges (Lu.eta_count lu);
    let fresh = Lu.factor mat basis in
    let b = Array.init m (fun _ -> Prng.float rng -. 0.5) in
    let via_eta = Array.copy b in
    let via_fresh = Array.copy b in
    Lu.ftran lu via_eta;
    Lu.ftran fresh via_fresh;
    Alcotest.(check bool)
      "ftran agreement" true
      (max_abs_diff via_eta via_fresh <= 1e-7);
    let c = Array.init m (fun _ -> Prng.float rng -. 0.5) in
    let ce = Array.copy c in
    let cf = Array.copy c in
    Lu.btran lu ce;
    Lu.btran fresh cf;
    Alcotest.(check bool)
      "btran agreement" true
      (max_abs_diff ce cf <= 1e-7)
  done

let test_update_singular_pivot () =
  let a = [| [| 2.; 0. |]; [| 0.; 2. |] |] in
  let lu = Lu.factor (csc_of_dense a) (identity_basis 2) in
  Alcotest.check_raises "zero pivot in update" Lu.Singular (fun () ->
      Lu.update lu ~w:[| 1.; 0. |] ~r:1)

let test_fill_reported () =
  let m = 10 in
  let rng = Prng.create 3 in
  let a = random_matrix rng m in
  let lu = Lu.factor (csc_of_dense a) (identity_basis m) in
  Alcotest.(check bool) "fill at least m" true (Lu.fill lu >= m);
  Alcotest.(check int) "size" m (Lu.size lu)

(* ---------------- singular verdicts and backward error ---------------- *)

(* Random square matrix, optionally made pathological. Returns the
   matrix and whether it is exactly rank-deficient: the factorization
   must reject those with [Singular], and every basis it accepts must
   solve its system to a small backward error. *)
let matrix_of_case seed pathology =
  let rng = Prng.create seed in
  let m = 2 + Prng.int rng 14 in
  let a = random_matrix rng m in
  let deficient =
    match pathology with
    | 0 -> false (* plain random sparse, comfortably nonsingular *)
    | 1 ->
      (* duplicate column: exactly rank-deficient when j <> k *)
      let j = Prng.int rng m and k = Prng.int rng m in
      if j <> k then
        for i = 0 to m - 1 do
          a.(i).(j) <- a.(i).(k)
        done;
      j <> k
    | 2 ->
      (* ill-conditioned: one column scaled nine orders down, still
         above the absolute pivot tolerance *)
      let j = Prng.int rng m in
      for i = 0 to m - 1 do
        a.(i).(j) <- a.(i).(j) *. 1e-9
      done;
      false
    | _ ->
      (* exactly zero column *)
      let j = Prng.int rng m in
      for i = 0 to m - 1 do
        a.(i).(j) <- 0.
      done;
      true
  in
  (a, deficient)

let verdict_prop (seed, pathology) =
  let a, deficient = matrix_of_case seed pathology in
  let m = Array.length a in
  let mat = csc_of_dense a in
  let basis = identity_basis m in
  match Lu.factor mat basis with
  | exception Lu.Singular -> true
  | _ when deficient ->
    QCheck.Test.fail_report "rank-deficient basis accepted"
  | lu ->
    let rng = Prng.create (seed lxor 0x5bf0) in
    let b0 = Array.init m (fun _ -> Prng.float rng -. 0.5) in
    (* backward error, relative to the matrix scale: forward error is
       legitimately amplified on the ill-conditioned cases *)
    let x = Array.copy b0 in
    Lu.ftran lu x;
    let scale =
      Array.fold_left
        (Array.fold_left (fun acc v -> Float.max acc (Float.abs v)))
        1. a
    in
    let r = max_abs_diff b0 (apply mat basis x) /. scale in
    if r > 1e-6 then QCheck.Test.fail_reportf "residual too large: %g" r
    else true

let qcheck_verdict =
  QCheck.Test.make ~count:300 ~name:"singular verdict and residual"
    QCheck.(pair (int_range 1 1_000_000) (int_range 0 3))
    verdict_prop

let () =
  Alcotest.run "lu"
    [
      ( "factor-solve",
        [
          Alcotest.test_case "random round-trips" `Quick test_roundtrip_random;
          Alcotest.test_case "permutation matrix" `Quick
            test_roundtrip_permutation;
          Alcotest.test_case "singular raises" `Quick test_singular_raises;
          Alcotest.test_case "singular-leaning basis" `Quick
            test_singular_leaning;
          Alcotest.test_case "ill-conditioned scales" `Quick
            test_ill_conditioned_scales;
          Alcotest.test_case "fill and size" `Quick test_fill_reported;
        ] );
      ( "eta-updates",
        [
          Alcotest.test_case "eta vs fresh factorization" `Quick
            test_eta_vs_fresh;
          Alcotest.test_case "singular update pivot" `Quick
            test_update_singular_pivot;
        ] );
      ("pivot-search", [ QCheck_alcotest.to_alcotest qcheck_verdict ]);
    ]
