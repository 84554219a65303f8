(* Montgomery multiplication (fused CIOS) on 30-bit limbs, and the
   inverse by Bigint's extended Euclid.

   All elements are int arrays of exactly [ctx.k] limbs. The product loop
   keeps every intermediate below 2^62, within OCaml's native int. *)

(* The limb width and mask are literals, not Bigint.Internal's values:
   dune's default (dev) profile compiles every module with -opaque, which
   hides another module's constants, so the product would reload both from
   Bigint's module block on every inner iteration and shift by a register.
   Literals compile to immediate shifts and masks in every profile; the
   check below keeps them equal to Bigint's. *)
let limb_bits = 30
let limb_mask = 0x3FFFFFFF

let () =
  if limb_bits <> Bigint.Internal.limb_bits || limb_mask <> Bigint.Internal.limb_mask then
    failwith "Mont: limb width differs from Bigint's"

type ctx = {
  m : int array;          (* modulus limbs, length k *)
  k : int;
  m' : int;               (* -m^{-1} mod 2^limb_bits *)
  r2 : int array;         (* R^2 mod m, Montgomery form of R *)
  one_m : int array;      (* R mod m = Montgomery form of 1 *)
  modulus : Bigint.t;
  root_exp : Bigint.t;    (* (m + 1)/4, the square-root exponent *)
}

type elt = int array

let invalid fmt = invalid_arg fmt

(* inverse of odd x modulo 2^limb_bits by Newton-Hensel lifting *)
let limb_inverse x =
  let inv = ref x in
  for _ = 1 to 6 do
    inv := (!inv * (2 - (x * !inv))) land limb_mask
  done;
  !inv

let fixed_width k mag =
  let v = Array.make k 0 in
  Array.blit mag 0 v 0 (Array.length mag);
  v

let to_mag v = v

(* compare fixed-width a with modulus limbs, top limb first; a loop, not a
   local closure, so the comparison allocates nothing *)
let geq_mod a m k =
  let i = ref (k - 1) in
  while !i >= 0 && a.(!i) = m.(!i) do
    decr i
  done;
  !i < 0 || a.(!i) > m.(!i)

let sub_mod_in_place a m k =
  let borrow = ref 0 in
  for i = 0 to k - 1 do
    let d = a.(i) - m.(i) - !borrow in
    if d < 0 then (a.(i) <- d + (1 lsl limb_bits); borrow := 1)
    else (a.(i) <- d; borrow := 0)
  done

(* One pass per limb a_i computes t <- (t + a_i·b + u·m) / 2^30, with u
   chosen so the low limb cancels. With limbs below 2^30 and carries below
   2^32, every intermediate stays below 2^30 + 2·(2^30−1)² + 2^32 < 2^62.
   Operands below m keep t below 2m, so t is the k-limb result plus a top
   limb [hi] of 0 or 1. The width guard makes the unchecked indexing safe:
   [ctx.m] has k limbs by construction. *)
let mont_mul ctx a b =
  let k = ctx.k and m = ctx.m and m' = ctx.m' in
  if Array.length a <> k || Array.length b <> k then
    invalid "Mont.mul: operand width differs from the context";
  let r = Array.make k 0 in
  let b0 = Array.unsafe_get b 0 and m0 = Array.unsafe_get m 0 in
  let hi = ref 0 in
  for i = 0 to k - 1 do
    let ai = Array.unsafe_get a i in
    let s = Array.unsafe_get r 0 + (ai * b0) in
    let u = (s * m') land limb_mask in
    let c = ref ((s + (u * m0)) lsr limb_bits) in
    for j = 1 to k - 1 do
      let s =
        Array.unsafe_get r j
        + (ai * Array.unsafe_get b j)
        + (u * Array.unsafe_get m j)
        + !c
      in
      Array.unsafe_set r (j - 1) (s land limb_mask);
      c := s lsr limb_bits
    done;
    let s = !hi + !c in
    Array.unsafe_set r (k - 1) (s land limb_mask);
    hi := s lsr limb_bits
  done;
  if !hi > 0 || geq_mod r m k then sub_mod_in_place r m k;
  r

let create modulus =
  if Bigint.compare modulus (Bigint.of_int 3) < 0 then
    invalid "Mont.create: modulus too small";
  if Bigint.is_even modulus then invalid "Mont.create: even modulus";
  let mag = Bigint.Internal.magnitude modulus in
  let k = Array.length mag in
  let m = Array.copy mag in
  let m' = (limb_mask + 1 - limb_inverse m.(0)) land limb_mask in
  (* R mod m and R² mod m for R = 2^(30·k): a shift and a reduction *)
  let radix_power e =
    fixed_width k
      (Bigint.Internal.magnitude
         (Bigint.erem (Bigint.shift_left Bigint.one (e * k * limb_bits)) modulus))
  in
  {
    m;
    k;
    m';
    r2 = radix_power 2;
    one_m = radix_power 1;
    modulus;
    root_exp = Bigint.shift_right (Bigint.succ modulus) 2;
  }

let modulus ctx = ctx.modulus
let num_limbs ctx = ctx.k

let of_bigint ctx x =
  let x = Bigint.erem x ctx.modulus in
  let v = fixed_width ctx.k (Bigint.Internal.magnitude x) in
  mont_mul ctx v ctx.r2

let to_bigint ctx x =
  let one_raw = Array.make ctx.k 0 in
  one_raw.(0) <- 1;
  Bigint.Internal.of_magnitude (to_mag (mont_mul ctx x one_raw))

let zero ctx = Array.make ctx.k 0
let one ctx = Array.copy ctx.one_m

let add ctx a b =
  let k = ctx.k in
  let r = Array.make k 0 in
  let carry = ref 0 in
  for i = 0 to k - 1 do
    let s = a.(i) + b.(i) + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  if !carry > 0 || geq_mod r ctx.m k then sub_mod_in_place r ctx.m k;
  r

let sub ctx a b =
  let k = ctx.k in
  let r = Array.make k 0 in
  let borrow = ref 0 in
  for i = 0 to k - 1 do
    let d = a.(i) - b.(i) - !borrow in
    if d < 0 then (r.(i) <- d + (1 lsl limb_bits); borrow := 1)
    else (r.(i) <- d; borrow := 0)
  done;
  if !borrow = 1 then begin
    (* add modulus back *)
    let carry = ref 0 in
    for i = 0 to k - 1 do
      let s = r.(i) + ctx.m.(i) + !carry in
      r.(i) <- s land limb_mask;
      carry := s lsr limb_bits
    done
  end;
  r

let is_zero _ctx a = Array.for_all (fun l -> l = 0) a

let neg ctx a = if is_zero ctx a then Array.copy a else sub ctx (zero ctx) a
let mul = mont_mul
let sqr ctx a = mont_mul ctx a a
let equal _ctx a b = a = b

(* Fixed windows of w bits: 1 below 48-bit exponents, where a 4-bit
   table's 14 products cost more than the chain products it saves (a plain
   square-and-multiply ladder, as for tiny's 9-bit cofactor), 4 beyond *)
let window_bits nbits = if nbits < 48 then 1 else 4

let chain ~one ~mul ~sqr b e =
  if Bigint.sign e < 0 then invalid "Mont.chain: negative exponent";
  let nbits = Bigint.num_bits e in
  if nbits = 0 then one
  else begin
    let w = window_bits nbits in
    (* table.(v) = b^v for 0 < v < 2^w; slot 0 is never read *)
    let table = Array.make (1 lsl w) b in
    for v = 2 to (1 lsl w) - 1 do
      table.(v) <- mul table.(v - 1) b
    done;
    let window i =
      (* bits [w·i, w·i + w) of e *)
      let v = ref 0 in
      for bit = (w * i) + w - 1 downto w * i do
        v := (!v lsl 1) lor if bit < nbits && Bigint.testbit e bit then 1 else 0
      done;
      !v
    in
    let nwin = (nbits + w - 1) / w in
    let acc = ref table.(window (nwin - 1)) in
    for i = nwin - 2 downto 0 do
      for _ = 1 to w do
        acc := sqr !acc
      done;
      let v = window i in
      if v <> 0 then acc := mul !acc table.(v)
    done;
    !acc
  end

let pow ctx b e = chain ~one:(one ctx) ~mul:(mont_mul ctx) ~sqr:(sqr ctx) b e

let of_int ctx v = of_bigint ctx (Bigint.of_int v)

(* For m ≡ 3 (mod 4), r = a^((m+1)/4) squares to a exactly when a is a
   square (0 included); for a non-residue r² = −a, so no Jacobi symbol is
   needed *)
let sqrt ctx a =
  if not (Bigint.testbit ctx.modulus 1) then invalid "Mont.sqrt: modulus is not 3 mod 4";
  let r = pow ctx a ctx.root_exp in
  if equal ctx (sqr ctx r) a then Some r else None

let inv ctx a = of_bigint ctx (Bigint.invert (to_bigint ctx a) ctx.modulus)

(* Montgomery's trick: prefix products, one inversion of the last, then
   peel one factor off per element walking back, 3(n − 1) products. *)
let inv_all ctx a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let prefix = Array.make n a.(0) in
    for i = 1 to n - 1 do
      prefix.(i) <- mont_mul ctx prefix.(i - 1) a.(i)
    done;
    let out = Array.make n a.(0) in
    let acc = ref (inv ctx prefix.(n - 1)) in
    for i = n - 1 downto 1 do
      out.(i) <- mont_mul ctx !acc prefix.(i - 1);
      acc := mont_mul ctx !acc a.(i)
    done;
    out.(0) <- !acc;
    out
  end
