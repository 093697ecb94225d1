(* Exact rational arithmetic: hand-checked identities, decimal
   rendering, and randomized algebraic properties including the
   float-conversion round trip that {!Ilp.Certify} leans on. *)

module R = Ilp.Rat

let check_str = Alcotest.(check string)
let r = R.of_ints

let test_basics () =
  check_str "1/2 + 1/3" "5/6" (R.to_string (R.add (r 1 2) (r 1 3)));
  check_str "normalized" "1/2" (R.to_string (r 17 34));
  check_str "neg den" "-1/2" (R.to_string (r 1 (-2)));
  check_str "sub to zero" "0" (R.to_string (R.sub (r 5 7) (r 5 7)));
  check_str "mul" "3/8" (R.to_string (R.mul (r 3 4) (r 1 2)));
  check_str "div" "3/2" (R.to_string (R.div (r 3 4) (r 1 2)));
  check_str "int" "-42" (R.to_string (R.of_int (-42)));
  Alcotest.(check int) "sign pos" 1 (R.sign (r 1 3));
  Alcotest.(check int) "sign neg" (-1) (R.sign (r (-1) 3));
  Alcotest.(check bool) "cmp" true (R.compare (r 1 3) (r 1 2) < 0);
  Alcotest.(check bool) "min/max" true
    (R.equal (R.min (r 1 3) (r 1 2)) (r 1 3)
    && R.equal (R.max (r 1 3) (r 1 2)) (r 1 2))

let test_big_values () =
  (* (2^60 / 3) * 3 round-trips; products well past one limb *)
  let big = R.of_float (Float.ldexp 1. 60) in
  let third = R.div big (R.of_int 3) in
  Alcotest.(check bool) "big/3*3" true
    (R.equal big (R.mul third (R.of_int 3)));
  check_str "2^60" "1152921504606846976" (R.to_string big);
  let p = R.mul big big in
  check_str "2^120" "1329227995784915872903807060280344576" (R.to_string p);
  (* exact decimal of a dyadic: 0.1 is not 1/10 in binary *)
  check_str "0.5 exact" "1/2" (R.to_string (R.of_float 0.5));
  check_str "0.1 exact" "3602879701896397/36028797018963968"
    (R.to_string (R.of_float 0.1))

let test_of_float_edges () =
  Alcotest.(check bool) "zero" true (R.is_zero (R.of_float 0.));
  Alcotest.check (Alcotest.float 0.) "tiny" 1e-300
    (R.to_float (R.of_float 1e-300));
  Alcotest.check (Alcotest.float 0.) "huge" 1e300
    (R.to_float (R.of_float 1e300));
  Alcotest.(check bool) "nan rejected" true
    (match R.of_float Float.nan with
     | exception Invalid_argument _ -> true
     | _ -> false);
  Alcotest.(check bool) "inf rejected" true
    (match R.of_float Float.infinity with
     | exception Invalid_argument _ -> true
     | _ -> false)

let float_gen =
  (* finite doubles across the whole dynamic range, dyadics included *)
  QCheck.Gen.(
    let* m = float_bound_inclusive 2. in
    let* e = int_range (-60) 60 in
    return (Float.ldexp (m -. 1.) e))

let arb_float = QCheck.make ~print:string_of_float float_gen

let prop_float_roundtrip =
  QCheck.Test.make ~name:"of_float/to_float round-trips exactly" ~count:500
    arb_float
    (fun f -> R.to_float (R.of_float f) = f)

let prop_float_sum_exact =
  QCheck.Test.make ~name:"exact sum refines float sum" ~count:500
    QCheck.(pair arb_float arb_float)
    (fun (a, b) ->
      (* the exact sum and the rounded float sum differ by at most one
         ulp of the result *)
      let exact = R.add (R.of_float a) (R.of_float b) in
      let s = a +. b in
      let ulp = Float.abs (Float.succ (Float.abs s) -. Float.abs s) in
      Float.abs (R.to_float exact -. s) <= ulp)

let prop_field_laws =
  QCheck.Test.make ~name:"field identities on random rationals" ~count:500
    QCheck.(triple (pair small_signed_int small_nat)
              (pair small_signed_int small_nat)
              (pair small_signed_int small_nat))
    (fun ((pa, qa), (pb, qb), (pc, qc)) ->
      let mk p q = r p (q + 1) in
      let a = mk pa qa and b = mk pb qb and c = mk pc qc in
      R.equal (R.add a b) (R.add b a)
      && R.equal (R.mul a b) (R.mul b a)
      && R.equal (R.add (R.add a b) c) (R.add a (R.add b c))
      && R.equal (R.mul (R.mul a b) c) (R.mul a (R.mul b c))
      && R.equal (R.mul a (R.add b c)) (R.add (R.mul a b) (R.mul a c))
      && R.equal (R.sub a b) (R.neg (R.sub b a))
      && (R.is_zero b || R.equal a (R.mul (R.div a b) b)))

let prop_division_exact =
  QCheck.Test.make ~name:"multi-limb division round-trips" ~count:300
    QCheck.(triple arb_float arb_float arb_float)
    (fun (a, b, c) ->
      (* build multi-limb numerators/denominators out of float products *)
      let x = R.mul (R.of_float a) (R.mul (R.of_float b) (R.of_float c)) in
      let d = R.add (R.mul (R.of_float b) (R.of_float b)) R.one in
      let q = R.div x d in
      R.equal x (R.mul q d))

let prop_compare_consistent =
  QCheck.Test.make ~name:"compare agrees with float compare" ~count:500
    QCheck.(pair arb_float arb_float)
    (fun (a, b) ->
      let c = R.compare (R.of_float a) (R.of_float b) in
      if a < b then c < 0 else if a > b then c > 0 else c = 0)

(* 2^k by repeated squaring through the general multiply *)
let rec pow2 k =
  if k = 0 then R.one
  else
    let h = pow2 (k / 2) in
    let h2 = R.mul h h in
    if k land 1 = 1 then R.mul h2 (R.of_int 2) else h2

(* The value of a finite double read off its IEEE fields, reduced by
   the general division: (-1)^s * mant / 2^k (or mant * 2^-k). *)
let of_float_by_fields f =
  let bits = Int64.bits_of_float f in
  let field = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7ff in
  let frac = Int64.to_int (Int64.logand bits 0xF_FFFF_FFFF_FFFFL) in
  let mant, exp =
    if field = 0 then (frac, -1074) else (frac lor (1 lsl 52), field - 1075)
  in
  let v =
    if exp >= 0 then R.mul (R.of_int mant) (pow2 exp)
    else R.div (R.of_int mant) (pow2 (-exp))
  in
  if Int64.compare bits 0L < 0 then R.neg v else v

(* every finite double: random sign, exponent field (subnormals and the
   largest exponents included) and 52 fraction bits *)
let any_double_gen =
  QCheck.Gen.(
    let* sign = bool in
    let* field = int_range 0 2046 in
    let* hi = int_bound (1 lsl 26 - 1) in
    let* lo = int_bound (1 lsl 26 - 1) in
    let top = (if sign then 1 lsl 11 else 0) lor field in
    let bits =
      Int64.logor
        (Int64.shift_left (Int64.of_int top) 52)
        (Int64.of_int ((hi lsl 26) lor lo))
    in
    return (Int64.float_of_bits bits))

let same_value f =
  let a = R.of_float f and b = of_float_by_fields f in
  R.equal a b && R.to_string a = R.to_string b

let test_of_float_fields () =
  List.iter
    (fun f ->
      Alcotest.(check bool) (Printf.sprintf "%h" f) true (same_value f))
    [
      1.; -1.; 0.75; 3.; 1024.; 0.1; Float.succ 0.; Float.pred Float.min_float;
      Float.min_float; Float.max_float; -.Float.max_float; Float.epsilon;
    ]

let prop_of_float_fields =
  QCheck.Test.make
    ~name:"of_float is the reduced odd mantissa over a power of two"
    ~count:500
    (QCheck.make ~print:(Printf.sprintf "%h") any_double_gen)
    (fun f -> f = 0. || same_value f)

let rec int_gcd a b = if b = 0 then a else int_gcd b (a mod b)

(* Pairs p = a g, q = b g within a few thousand of 2^30 (one limb on
   one side of the boundary, two on the other) and of 2^60. The
   reduced form must be (p/G)/(q/G) whether the gcd starts on native
   ints (of_ints) or on four-limb values first cut down by long
   division (the same fraction scaled by a 2^62-sized factor). *)
let prop_gcd_paths_agree =
  QCheck.Test.make ~name:"native and multi-limb gcd agree around 2^30 and 2^60"
    ~count:500
    QCheck.(
      quad (int_range 1 4096) (int_range (-4000) 4000) (int_range (-4000) 4000)
        bool)
    (fun (g, da, db, big) ->
      let around = if big then 1 lsl 60 else 1 lsl 30 in
      let p = (around + da) / g * g and q = (around + db) / g * g in
      let d = int_gcd p q in
      let expected =
        if q / d = 1 then string_of_int (p / d)
        else Printf.sprintf "%d/%d" (p / d) (q / d)
      in
      let k = R.of_int ((1 lsl 61) + 12345) in
      let scaled = R.div (R.mul (R.of_int p) k) (R.mul (R.of_int q) k) in
      R.to_string (R.of_ints p q) = expected
      && R.to_string scaled = expected)

(* Numerators and denominators on both sides of one limb: small values,
   2^30 - 1 (the largest one-limb value, whose products approach 2^60),
   2^30 and just past it (two limbs), and random one-limb values. *)
let limb_edge_gen =
  QCheck.Gen.(
    oneof
      [
        int_range 1 7;
        oneofl [ (1 lsl 30) - 1; (1 lsl 30) - 2; 1 lsl 30; (1 lsl 30) + 1 ];
        int_range ((1 lsl 30) - 64) ((1 lsl 30) + 64);
        int_range 1 ((1 lsl 30) - 1);
      ])

let edge_rat_gen =
  QCheck.Gen.(
    let* p = limb_edge_gen and* q = limb_edge_gen and* s = int_range (-1) 1 in
    return (R.of_ints (s * p) q))

let prop_native_path_agrees =
  QCheck.Test.make
    ~name:"native-int add/mul/div/compare equal the multi-limb path"
    ~count:1000
    (QCheck.make
       ~print:(fun (a, b) -> R.to_string a ^ ", " ^ R.to_string b)
       QCheck.Gen.(pair edge_rat_gen edge_rat_gen))
    (fun (a, b) ->
      let same x y = R.to_string x = R.to_string y in
      same (R.add a b) (R.Limbs.add a b)
      && same (R.sub a b) (R.Limbs.add a (R.neg b))
      && same (R.mul a b) (R.Limbs.mul a b)
      && (R.is_zero b || same (R.div a b) (R.Limbs.div a b))
      && R.compare a b = R.Limbs.compare a b
      && R.compare b a = R.Limbs.compare b a)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "rat"
    [
      ( "hand-checked",
        [
          Alcotest.test_case "basics" `Quick test_basics;
          Alcotest.test_case "big values" `Quick test_big_values;
          Alcotest.test_case "of_float edges" `Quick test_of_float_edges;
          Alcotest.test_case "of_float from IEEE fields" `Quick
            test_of_float_fields;
        ] );
      ( "properties",
        [
          qt prop_float_roundtrip;
          qt prop_float_sum_exact;
          qt prop_field_laws;
          qt prop_division_exact;
          qt prop_compare_consistent;
          qt prop_of_float_fields;
          qt prop_gcd_paths_agree;
          qt prop_native_path_agrees;
        ] );
    ]
