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

(* ---------------- hyper-sparse solves and the workspace ---------------- *)

(* A basis problem shaped like the paper LPs: [m] rows and [2m] columns.
   Column [j < m] is structural, with a dominant entry 4..5 in row
   [perm.(j)] and up to three off-diagonal entries of +-1; column
   [m + j] is the slack (unit column) of row [perm.(j)]. Slot [j] of the
   basis holds one of the two, the slack with probability [slack_share],
   so every such basis is column diagonally dominant after a row
   permutation, hence nonsingular. *)
let paper_like rng m slack_share =
  let perm = Array.init m Fun.id in
  for i = m - 1 downto 1 do
    let k = Prng.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(k);
    perm.(k) <- t
  done;
  let structural j =
    let entries = ref [ (perm.(j), 4. +. Prng.float rng) ] in
    for _ = 1 to Prng.int rng 4 do
      let i = Prng.int rng m in
      if not (List.mem_assoc i !entries) then
        entries := (i, if Prng.bool rng 0.5 then 1. else -1.) :: !entries
    done;
    Sparse.of_assoc !entries
  in
  let cols =
    Array.init (2 * m) (fun j ->
        if j < m then structural j else Sparse.of_assoc [ (perm.(j - m), 1.) ])
  in
  let mat = Sparse.Csc.of_columns ~nrows:m cols in
  let basis =
    Array.init m (fun j -> if Prng.bool rng slack_share then m + j else j)
  in
  (mat, basis)

(* One basis exchange: a random nonbasic column enters, the slot of its
   largest transformed entry leaves. *)
let exchange rng mat lu basis =
  let m = Array.length basis in
  let j = Prng.int rng (2 * m) in
  if not (Array.mem j basis) then begin
    let w = Array.make m 0. in
    Sparse.Csc.iter_col mat j (fun r v -> w.(r) <- v);
    Lu.ftran lu w;
    let r = ref 0 in
    Array.iteri (fun i v -> if Float.abs v > Float.abs w.(!r) then r := i) w;
    if Float.abs w.(!r) >= 1e-3 then begin
      Lu.update lu ~w ~r:!r;
      basis.(!r) <- j
    end
  end

(* A right-hand side with [n] nonzeros on distinct random positions,
   returned with its pattern (length [m], as the sparse solves need). *)
let sparse_rhs rng m n =
  let v = Array.make m 0. and pat = Array.make m 0 in
  let k = ref 0 in
  while !k < n do
    let i = Prng.int rng m in
    if v.(i) = 0. then begin
      v.(i) <- (if Prng.bool rng 0.5 then 1. else Prng.float rng -. 2.);
      pat.(!k) <- i;
      incr k
    end
  done;
  (v, pat)

let float_eq (a : float) b = a = b

(* [step_of.(i)] is the elimination step of slot (or row) [i]. *)
let steps_of lu ~by_slot =
  let s = Array.make (Lu.size lu) 0 in
  Array.iteri
    (fun k (row, slot) -> s.(if by_slot then slot else row) <- k)
    (Lu.pivot_order lu);
  s

(* The sparse solve must equal the dense one entry by entry. Its return
   is [-1] exactly when the input was too dense for the sweep; otherwise
   its pattern lists every nonzero of the result exactly once, and, when
   [ordered], in decreasing elimination-step order. *)
let check_sparse_solve ~what ~ordered ~step_of m n dense sparse pat c =
  let fail fmt = QCheck.Test.fail_reportf ("%s: " ^^ fmt) what in
  if not (Array.for_all2 float_eq dense sparse) then fail "result differs"
  else if c = -1 then
    if n * 8 <= m then fail "dense fallback at n=%d, m=%d" n m else true
  else if n * 8 > m then fail "sparse path at n=%d, m=%d" n m
  else begin
    let listed = Array.make m false in
    for k = 0 to c - 1 do
      if listed.(pat.(k)) then fail "%d listed twice" pat.(k);
      listed.(pat.(k)) <- true;
      if ordered && k > 0 && step_of.(pat.(k)) >= step_of.(pat.(k - 1)) then
        fail "pattern not in decreasing step order"
    done;
    Array.iteri
      (fun i v -> if v <> 0. && not listed.(i) then fail "nonzero %d missing" i)
      sparse;
    true
  end

let check_solves rng lu =
  let m = Lu.size lu in
  let slot_step = steps_of lu ~by_slot:true in
  let row_step = steps_of lu ~by_slot:false in
  let fresh = Lu.eta_count lu = 0 in
  List.for_all
    (fun n ->
      let b, pat = sparse_rhs rng m n in
      let dense = Array.copy b and sparse = Array.copy b in
      Lu.ftran lu dense;
      let c = Lu.ftran_sparse lu sparse pat n in
      check_sparse_solve ~what:"ftran" ~ordered:fresh ~step_of:slot_step m n
        dense sparse pat c
      &&
      let y, pat = sparse_rhs rng m n in
      let dense = Array.copy y and sparse = Array.copy y in
      Lu.btran lu dense;
      let c = Lu.btran_sparse lu sparse pat n in
      check_sparse_solve ~what:"btran" ~ordered:true ~step_of:row_step m n
        dense sparse pat c)
    [ 1; 1; 1 + Prng.int rng (m / 8); (m / 8) + 1 + Prng.int rng (m - (m / 8)) ]

let sparse_dense_prop (seed, shape) =
  let rng = Prng.create seed in
  let m = 32 + Prng.int rng 64 in
  let mat, basis = paper_like rng m [| 0.9; 0.6; 0.2 |].(shape) in
  let lu = Lu.factor mat basis in
  check_solves rng lu
  &&
  let exchanges = 1 + Prng.int rng 30 in
  for _ = 1 to exchanges do
    exchange rng mat lu basis
  done;
  check_solves rng lu

let qcheck_sparse_dense =
  QCheck.Test.make ~count:200 ~name:"sparse solves equal dense solves"
    QCheck.(pair (int_range 1 1_000_000) (int_range 0 2))
    sparse_dense_prop

(* One round of everything the simplex engine asks of its workspace:
   refactor, exchanges, hyper-sparse solves. [probe] wraps each call. *)
let workspace_round ~probe seed lu mat basis0 =
  let rng = Prng.create seed in
  let m = Lu.size lu in
  let basis = Array.copy basis0 in
  probe `Factor (fun () -> Lu.refactor lu mat basis);
  for _ = 1 to 25 do
    let j = Prng.int rng (2 * m) in
    if not (Array.mem j basis) then begin
      let w = Array.make m 0. and pat = Array.make m 0 in
      let n = ref 0 in
      Sparse.Csc.iter_col mat j (fun r v ->
          w.(r) <- v;
          pat.(!n) <- r;
          incr n);
      let n = !n in
      probe `Ftran (fun () -> ignore (Lu.ftran_sparse lu w pat n));
      let r = ref 0 in
      Array.iteri (fun i v -> if Float.abs v > Float.abs w.(!r) then r := i) w;
      if Float.abs w.(!r) >= 1e-3 then begin
        probe `Update (fun () -> Lu.update lu ~w ~r:!r);
        basis.(!r) <- j
      end
    end;
    let rho = Array.make m 0. and pat = Array.make m 0 in
    let r = Prng.int rng m in
    rho.(r) <- 1.;
    pat.(0) <- r;
    probe `Btran (fun () -> ignore (Lu.btran_sparse lu rho pat 1))
  done

(* Words allocated by [f ()]: minor words plus words allocated directly
   in the major heap, less what the probe itself allocates (the boxed
   readings and the [Gc.quick_stat] record), measured on an empty call.
   A minor collection first keeps promotions out of the major count. *)
let words f =
  Gc.minor ();
  let m0 = Gc.minor_words () in
  let j0 = (Gc.quick_stat ()).Gc.major_words in
  f ();
  let m1 = Gc.minor_words () in
  let j1 = (Gc.quick_stat ()).Gc.major_words in
  m1 -. m0 +. (j1 -. j0)

let test_workspace_no_alloc () =
  let calib = words (fun () -> ()) in
  List.iter
    (fun (seed, share) ->
      let rng = Prng.create seed in
      let m = 200 in
      let mat, basis = paper_like rng m share in
      let lu = Lu.create m in
      workspace_round ~probe:(fun _ f -> f ()) seed lu mat basis;
      let total = Hashtbl.create 4 in
      workspace_round seed lu mat basis ~probe:(fun op f ->
          let w = words f -. calib in
          Hashtbl.replace total op
            (w +. Option.value ~default:0. (Hashtbl.find_opt total op)));
      List.iter
        (fun (op, name) ->
          Alcotest.(check (float 0.))
            (Printf.sprintf "%s words after warm-up (seed %d)" name seed)
            0.
            (Option.value ~default:0. (Hashtbl.find_opt total op)))
        [
          (`Factor, "refactor");
          (`Update, "update");
          (`Ftran, "ftran_sparse");
          (`Btran, "btran_sparse");
        ])
    [ (7, 0.9); (8, 0.5); (9, 0.1) ]

let bits a = Array.map Int64.bits_of_float a

let test_workspace_reuse () =
  for seed = 1 to 20 do
    let rng = Prng.create (500 + seed) in
    let m = 32 + Prng.int rng 64 in
    let mat, basis_a = paper_like rng m 0.6 in
    let basis_b =
      Array.init m (fun j -> if Prng.bool rng 0.5 then m + j else j)
    in
    (* dirty the workspace: factor A, exchange, solve sparsely *)
    let lu = Lu.create m in
    Lu.refactor lu mat basis_a;
    for _ = 1 to 10 do
      exchange rng mat lu basis_a
    done;
    ignore (check_solves rng lu);
    Lu.refactor lu mat basis_b;
    let fresh = Lu.factor mat basis_b in
    Alcotest.(check int) "etas cleared" 0 (Lu.eta_count lu);
    Alcotest.(check int) "eta entries cleared" 0 (Lu.eta_nnz lu);
    Alcotest.(check int) "fill" (Lu.fill fresh) (Lu.fill lu);
    Alcotest.(check bool)
      "pivot order" true
      (Lu.pivot_order fresh = Lu.pivot_order lu);
    let same what solve =
      let v, pat = sparse_rhs rng m (1 + Prng.int rng 4) in
      let n = Array.fold_left (fun k x -> if x <> 0. then k + 1 else k) 0 v in
      let a = Array.copy v and b = Array.copy v in
      let pa = Array.copy pat and pb = Array.copy pat in
      let ca = solve fresh a pa n and cb = solve lu b pb n in
      Alcotest.(check bool) (what ^ " bit-identical") true (bits a = bits b);
      Alcotest.(check bool)
        (what ^ " pattern") true
        (ca = cb && Array.sub pa 0 (max ca 0) = Array.sub pb 0 (max cb 0))
    in
    same "ftran" (fun lu v _ _ -> Lu.ftran lu v; 0);
    same "btran" (fun lu v _ _ -> Lu.btran lu v; 0);
    same "ftran_sparse" Lu.ftran_sparse;
    same "btran_sparse" Lu.btran_sparse
  done

let test_owner_checked () =
  let rng = Prng.create 17 in
  let m = 40 in
  let mat, basis = paper_like rng m 0.5 in
  let lu = Lu.factor mat basis in
  let rejected f =
    Domain.join
      (Domain.spawn (fun () ->
           match f () with () -> false | exception Invalid_argument _ -> true))
  in
  let v () = Array.make m 0. and pat = Array.make m 0 in
  List.iter
    (fun (name, f) ->
      Alcotest.(check bool) (name ^ " from another domain") true (rejected f))
    [
      ("refactor", fun () -> Lu.refactor lu mat basis);
      ("ftran", fun () -> Lu.ftran lu (v ()));
      ("btran", fun () -> Lu.btran lu (v ()));
      ("ftran_sparse", fun () -> ignore (Lu.ftran_sparse lu (v ()) pat 0));
      ("btran_sparse", fun () -> ignore (Lu.btran_sparse lu (v ()) pat 0));
      ( "update",
        fun () ->
          let w = v () in
          w.(0) <- 1.;
          Lu.update lu ~w ~r:0 );
    ];
  (* the owning domain still solves *)
  let b = v () in
  b.(0) <- 1.;
  Lu.ftran lu b

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
      ( "hyper-sparse",
        [ QCheck_alcotest.to_alcotest qcheck_sparse_dense ] );
      ( "workspace",
        [
          Alcotest.test_case "no allocation after warm-up" `Quick
            test_workspace_no_alloc;
          Alcotest.test_case "refactor into a used workspace" `Quick
            test_workspace_reuse;
          Alcotest.test_case "cross-domain use rejected" `Quick
            test_owner_checked;
        ] );
    ]
