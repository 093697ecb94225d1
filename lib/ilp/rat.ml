(* Arbitrary-precision rationals as sign-magnitude bignums over
   base-2^30 limbs. Magnitudes ([nat]) are little-endian int arrays
   with no leading zero limb; [||] is zero. The limb base keeps every
   intermediate of schoolbook multiplication and Knuth division inside
   OCaml's 63-bit native int: products of two limbs are < 2^60, leaving
   two bits of headroom for carries and quotient-estimate corrections. *)

let base_bits = 30
let base = 1 lsl base_bits
let mask = base - 1

(* ------------------------------------------------------------------ *)
(* Naturals                                                            *)
(* ------------------------------------------------------------------ *)

type nat = int array

let nat_zero : nat = [||]
let nat_is_zero (a : nat) = Array.length a = 0

(* strip leading zero limbs *)
let norm (a : nat) =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

(* v >= 0; a native int has at most 62 bits, so at most three limbs *)
let nat_of_int v =
  if v = 0 then nat_zero
  else if v < base then [| v |]
  else if v lsr base_bits < base then [| v land mask; v lsr base_bits |]
  else
    [| v land mask; (v lsr base_bits) land mask; v lsr (2 * base_bits) |]

(* value of a natural of at most two limbs (< 2^60) as a native int *)
let nat_to_int (a : nat) =
  match Array.length a with
  | 0 -> 0
  | 1 -> a.(0)
  | _ -> (a.(1) lsl base_bits) lor a.(0)

let nat_cmp (a : nat) (b : nat) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Int.compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

let nat_add (a : nat) (b : nat) =
  let la = Array.length a and lb = Array.length b in
  let l = Int.max la lb in
  let r = Array.make (l + 1) 0 in
  let carry = ref 0 in
  for i = 0 to l - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land mask;
    carry := s lsr base_bits
  done;
  r.(l) <- !carry;
  norm r

(* a - b, requires a >= b *)
let nat_sub (a : nat) (b : nat) =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let s = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if s < 0 then begin
      r.(i) <- s + base;
      borrow := 1
    end
    else begin
      r.(i) <- s;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  norm r

let nat_mul (a : nat) (b : nat) =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then nat_zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      if ai <> 0 then begin
        for j = 0 to lb - 1 do
          let t = r.(i + j) + (ai * b.(j)) + !carry in
          r.(i + j) <- t land mask;
          carry := t lsr base_bits
        done;
        r.(i + lb) <- r.(i + lb) + !carry
      end
    done;
    norm r
  end

(* left shift by s bits, 0 <= s < base_bits *)
let nat_shl_small (a : nat) s =
  if s = 0 || nat_is_zero a then a
  else begin
    let la = Array.length a in
    let r = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let t = (a.(i) lsl s) lor !carry in
      r.(i) <- t land mask;
      carry := t lsr base_bits
    done;
    r.(la) <- !carry;
    norm r
  end

(* right shift by s bits, 0 <= s < base_bits *)
let nat_shr_small (a : nat) s =
  if s = 0 || nat_is_zero a then a
  else begin
    let la = Array.length a in
    let r = Array.make la 0 in
    for i = 0 to la - 1 do
      let lo = a.(i) lsr s in
      let hi = if i + 1 < la then (a.(i + 1) lsl (base_bits - s)) land mask else 0 in
      r.(i) <- lo lor hi
    done;
    norm r
  end

(* left shift by whole limbs *)
let nat_shl_limbs (a : nat) k =
  if k = 0 || nat_is_zero a then a
  else begin
    let la = Array.length a in
    let r = Array.make (la + k) 0 in
    Array.blit a 0 r k la;
    r
  end

(* divide by a single limb 0 < d < base *)
let nat_divmod_small (a : nat) d =
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let t = (!r lsl base_bits) lor a.(i) in
    q.(i) <- t / d;
    r := t mod d
  done;
  (norm q, !r)

(* Knuth algorithm D. Returns (quotient, remainder). *)
let nat_divmod (u : nat) (v : nat) =
  if nat_is_zero v then raise Division_by_zero;
  if nat_cmp u v < 0 then (nat_zero, u)
  else if Array.length v = 1 then begin
    let q, r = nat_divmod_small u v.(0) in
    (q, nat_of_int r)
  end
  else begin
    (* normalize so the top divisor limb has its high bit set *)
    let shift =
      let top = v.(Array.length v - 1) in
      let s = ref 0 in
      while top lsl !s < base / 2 do
        incr s
      done;
      !s
    in
    let vn = nat_shl_small v shift in
    let un0 = nat_shl_small u shift in
    let n = Array.length vn in
    let m = Array.length un0 - n in
    (* pad the dividend with one extra high limb *)
    let un = Array.make (Array.length un0 + 1) 0 in
    Array.blit un0 0 un 0 (Array.length un0);
    let q = Array.make (m + 1) 0 in
    let v1 = vn.(n - 1) and v2 = vn.(n - 2) in
    for j = m downto 0 do
      (* estimate the quotient limb from the top two dividend limbs *)
      let t = (un.(j + n) lsl base_bits) lor un.(j + n - 1) in
      let qhat = ref (t / v1) and rhat = ref (t mod v1) in
      let continue_ = ref true in
      while
        !continue_
        && (!qhat >= base || !qhat * v2 > (!rhat lsl base_bits) lor un.(j + n - 2))
      do
        decr qhat;
        rhat := !rhat + v1;
        if !rhat >= base then continue_ := false
      done;
      (* multiply-and-subtract qhat * vn from un[j .. j+n] *)
      let borrow = ref 0 and carry = ref 0 in
      for i = 0 to n - 1 do
        let p = (!qhat * vn.(i)) + !carry in
        carry := p lsr base_bits;
        let s = un.(i + j) - (p land mask) - !borrow in
        if s < 0 then begin
          un.(i + j) <- s + base;
          borrow := 1
        end
        else begin
          un.(i + j) <- s;
          borrow := 0
        end
      done;
      let s = un.(j + n) - !carry - !borrow in
      if s < 0 then begin
        (* estimate was one too large: add the divisor back *)
        un.(j + n) <- s + base;
        decr qhat;
        let c = ref 0 in
        for i = 0 to n - 1 do
          let t = un.(i + j) + vn.(i) + !c in
          un.(i + j) <- t land mask;
          c := t lsr base_bits
        done;
        un.(j + n) <- (un.(j + n) + !c) land mask
      end
      else un.(j + n) <- s;
      q.(j) <- !qhat
    done;
    let r = norm (Array.sub un 0 n) in
    (norm q, nat_shr_small r shift)
  end

let rec int_gcd a b = if b = 0 then a else int_gcd b (a mod b)

(* Euclid over Knuth division until both sides fit in a native int
   (two limbs), then a native loop: a remainder shrinks below the
   divisor, so a multi-limb gcd reaches the native loop within a step
   or two. *)
let rec nat_gcd a b =
  if nat_is_zero b then a
  else if Array.length a <= 2 && Array.length b <= 2 then
    nat_of_int (int_gcd (nat_to_int a) (nat_to_int b))
  else nat_gcd b (snd (nat_divmod a b))

(* exact division, callers guarantee divisibility *)
let nat_divexact a b =
  let q, r = nat_divmod a b in
  assert (nat_is_zero r);
  q

let nat_to_string (a : nat) =
  if nat_is_zero a then "0"
  else begin
    (* peel 9 decimal digits at a time; 10^9 exceeds the limb base so
       the chunk divisor goes through the full division *)
    let chunk_nat = nat_of_int 1_000_000_000 in
    (* every chunk is below 10^9: at most two limbs *)
    let small = nat_to_int in
    let parts = ref [] in
    let cur = ref a in
    while not (nat_is_zero !cur) do
      let q, r = nat_divmod !cur chunk_nat in
      parts := r :: !parts;
      cur := q
    done;
    let b = Buffer.create 32 in
    (match !parts with
     | [] -> Buffer.add_char b '0'
     | first :: rest ->
       Buffer.add_string b (string_of_int (small first));
       List.iter
         (fun x -> Buffer.add_string b (Printf.sprintf "%09d" (small x)))
         rest);
    Buffer.contents b
  end

(* ------------------------------------------------------------------ *)
(* Signed rationals                                                    *)
(* ------------------------------------------------------------------ *)

(* Invariants: [den] is nonzero; gcd(num, den) = 1; the sign lives in
   [sgn] ([0] iff [num] is zero, and then [den] = 1). *)
type t = { sgn : int; num : nat; den : nat }

let nat_one = [| 1 |]
let zero = { sgn = 0; num = nat_zero; den = nat_one }
let one = { sgn = 1; num = nat_one; den = nat_one }
let minus_one = { sgn = -1; num = nat_one; den = nat_one }

let nat_is_one (a : nat) = Array.length a = 1 && a.(0) = 1

let make sgn num den =
  if nat_is_zero num then zero
  else if nat_is_one den || nat_is_one num then { sgn; num; den }
  else begin
    let g = nat_gcd num den in
    if nat_is_one g then { sgn; num; den }
    else { sgn; num = nat_divexact num g; den = nat_divexact den g }
  end

let of_int v =
  if v = 0 then zero
  else if v > 0 then { sgn = 1; num = nat_of_int v; den = nat_one }
  else { sgn = -1; num = nat_of_int (-v); den = nat_one }

let of_ints p q =
  if q = 0 then raise Division_by_zero;
  let sgn = if p = 0 then 0 else if (p > 0) = (q > 0) then 1 else -1 in
  make sgn (nat_of_int (abs p)) (nat_of_int (abs q))

(* shift a natural left by an arbitrary bit count *)
let nat_shl (a : nat) bits =
  nat_shl_small (nat_shl_limbs a (bits / base_bits)) (bits mod base_bits)

let of_float f =
  if not (Float.is_finite f) then
    invalid_arg "Rat.of_float: not finite";
  if f = 0. then zero
  else begin
    let sgn = if f > 0. then 1 else -1 in
    let m, e = Float.frexp (Float.abs f) in
    (* m in [0.5, 1): m * 2^53 is an exact 53-bit integer. Shifting it
       until it is odd leaves an odd numerator over a power of two,
       which is already in lowest terms: no gcd. *)
    let rec odd mant exp =
      if mant land 1 = 0 then odd (mant lsr 1) (exp + 1) else (mant, exp)
    in
    let mant, exp = odd (Float.to_int (Float.ldexp m 53)) (e - 53) in
    if exp >= 0 then { sgn; num = nat_shl (nat_of_int mant) exp; den = nat_one }
    else { sgn; num = nat_of_int mant; den = nat_shl nat_one (-exp) }
  end

let neg a = if a.sgn = 0 then a else { a with sgn = -a.sgn }
let abs a = if a.sgn < 0 then { a with sgn = 1 } else a
let is_zero a = a.sgn = 0
let sign a = a.sgn

(* The multi-limb operations. *)
module Limbs = struct
  let add a b =
    if a.sgn = 0 then b
    else if b.sgn = 0 then a
    else begin
      (* a.num/a.den + b.num/b.den over the common denominator *)
      let na = nat_mul a.num b.den and nb = nat_mul b.num a.den in
      let den = nat_mul a.den b.den in
      if a.sgn = b.sgn then make a.sgn (nat_add na nb) den
      else begin
        match nat_cmp na nb with
        | 0 -> zero
        | c when c > 0 -> make a.sgn (nat_sub na nb) den
        | _ -> make b.sgn (nat_sub nb na) den
      end
    end

  let mul a b =
    if a.sgn = 0 || b.sgn = 0 then zero
    else make (a.sgn * b.sgn) (nat_mul a.num b.num) (nat_mul a.den b.den)

  let div a b =
    if b.sgn = 0 then raise Division_by_zero;
    if a.sgn = 0 then zero
    else make (a.sgn * b.sgn) (nat_mul a.num b.den) (nat_mul a.den b.num)

  let compare a b =
    if a.sgn <> b.sgn then Int.compare a.sgn b.sgn
    else if a.sgn = 0 then 0
    else begin
      (* same sign: compare cross products *)
      let c = nat_cmp (nat_mul a.num b.den) (nat_mul b.num a.den) in
      if a.sgn > 0 then c else -c
    end
end

(* The native path, for two nonzero operands whose numerators and
   denominators all fit one limb (< 2^30): a product of two stays below
   2^60 and a sum of two products below 2^61, inside a native int, and
   the native gcd reduces the result to the same normalized value the
   multi-limb path builds. Certification's data mostly lives here. *)
let one_limb a b =
  Array.length a.num = 1 && Array.length a.den = 1
  && Array.length b.num = 1 && Array.length b.den = 1

(* sgn * p / q in lowest terms, from native p >= 0 and q > 0 *)
let of_native sgn p q =
  if p = 0 then zero
  else begin
    let g = int_gcd p q in
    { sgn; num = nat_of_int (p / g); den = nat_of_int (q / g) }
  end

let add a b =
  if a.sgn = 0 then b
  else if b.sgn = 0 then a
  else if one_limb a b then begin
    let s = (a.sgn * a.num.(0) * b.den.(0)) + (b.sgn * b.num.(0) * a.den.(0)) in
    of_native (Int.compare s 0) (Int.abs s) (a.den.(0) * b.den.(0))
  end
  else Limbs.add a b

let sub a b = add a (neg b)

let mul a b =
  if a.sgn <> 0 && b.sgn <> 0 && one_limb a b then
    of_native (a.sgn * b.sgn) (a.num.(0) * b.num.(0)) (a.den.(0) * b.den.(0))
  else Limbs.mul a b

let div a b =
  if a.sgn <> 0 && b.sgn <> 0 && one_limb a b then
    of_native (a.sgn * b.sgn) (a.num.(0) * b.den.(0)) (a.den.(0) * b.num.(0))
  else Limbs.div a b

let compare a b =
  if a.sgn = b.sgn && a.sgn <> 0 && one_limb a b then begin
    let c = Int.compare (a.num.(0) * b.den.(0)) (b.num.(0) * a.den.(0)) in
    if a.sgn > 0 then c else -c
  end
  else Limbs.compare a b

let equal a b = compare a b = 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let to_float a =
  if a.sgn = 0 then 0.
  else begin
    (* Quotient of the top <= 3 limbs of each side (90 significant
       bits, more than a double holds), with the dropped limb counts
       folded back in through ldexp — no intermediate ever overflows,
       and extreme magnitudes round to inf / subnormals / 0 the way a
       nearest-double conversion should. *)
    let top3 (x : nat) =
      let l = Array.length x in
      let take = Int.min l 3 in
      let v = ref 0. in
      for i = l - 1 downto l - take do
        v := (!v *. Float.of_int base) +. Float.of_int x.(i)
      done;
      (!v, l - take)
    in
    let vn, dropn = top3 a.num and vd, dropd = top3 a.den in
    let v = Float.ldexp (vn /. vd) (base_bits * (dropn - dropd)) in
    if a.sgn > 0 then v else -.v
  end

let to_string a =
  let s = if a.sgn < 0 then "-" else "" in
  if nat_is_one a.den then s ^ nat_to_string a.num
  else s ^ nat_to_string a.num ^ "/" ^ nat_to_string a.den

let pp ppf a = Format.pp_print_string ppf (to_string a)
