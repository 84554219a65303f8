(* Arbitrary-precision integers on 30-bit limbs.

   Magnitudes are little-endian [int array]s with no most-significant zero
   limb; zero is the empty array. 30-bit limbs keep every intermediate
   product or accumulation below 2^62, inside OCaml's 63-bit native [int]. *)

let limb_bits = 30
let limb_mask = (1 lsl limb_bits) - 1
let limb_base = 1 lsl limb_bits

type t = { sign : int; mag : int array }

(* ------------------------------------------------------------------ *)
(* Magnitude (unsigned) primitives                                     *)
(* ------------------------------------------------------------------ *)

let mag_zero : int array = [||]

let normalize a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do decr n done;
  if !n = Array.length a then a else Array.sub a 0 !n

let mag_compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else begin
    let rec scan i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then compare a.(i) b.(i)
      else scan (i - 1)
    in
    scan (la - 1)
  end

let mag_add a b =
  let la = Array.length a and lb = Array.length b in
  let a, b, la, lb = if la >= lb then a, b, la, lb else b, a, lb, la in
  let r = Array.make (la + 1) 0 in
  let carry = ref 0 in
  for i = 0 to lb - 1 do
    let s = a.(i) + b.(i) + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  for i = lb to la - 1 do
    let s = a.(i) + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  r.(la) <- !carry;
  normalize r

(* precondition: a >= b *)
let mag_sub a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to lb - 1 do
    let d = a.(i) - b.(i) - !borrow in
    if d < 0 then (r.(i) <- d + limb_base; borrow := 1)
    else (r.(i) <- d; borrow := 0)
  done;
  for i = lb to la - 1 do
    let d = a.(i) - !borrow in
    if d < 0 then (r.(i) <- d + limb_base; borrow := 1)
    else (r.(i) <- d; borrow := 0)
  done;
  assert (!borrow = 0);
  normalize r

let mag_mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then mag_zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let s = r.(i + j) + (ai * b.(j)) + !carry in
          r.(i + j) <- s land limb_mask;
          carry := s lsr limb_bits
        done;
        r.(i + lb) <- r.(i + lb) + !carry
      end
    done;
    normalize r
  end

let mag_mul_int a m =
  (* m in [0, limb_base) *)
  let la = Array.length a in
  if la = 0 || m = 0 then mag_zero
  else begin
    let r = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let s = (a.(i) * m) + !carry in
      r.(i) <- s land limb_mask;
      carry := s lsr limb_bits
    done;
    r.(la) <- !carry;
    normalize r
  end

let mag_shift_left a bits =
  let la = Array.length a in
  if la = 0 then mag_zero
  else begin
    let limb_shift = bits / limb_bits and bit_shift = bits mod limb_bits in
    let r = Array.make (la + limb_shift + 1) 0 in
    if bit_shift = 0 then Array.blit a 0 r limb_shift la
    else begin
      let carry = ref 0 in
      for i = 0 to la - 1 do
        let s = (a.(i) lsl bit_shift) lor !carry in
        r.(i + limb_shift) <- s land limb_mask;
        carry := s lsr limb_bits
      done;
      r.(la + limb_shift) <- !carry
    end;
    normalize r
  end

let mag_shift_right a bits =
  let la = Array.length a in
  let limb_shift = bits / limb_bits and bit_shift = bits mod limb_bits in
  if limb_shift >= la then mag_zero
  else begin
    let lr = la - limb_shift in
    let r = Array.make lr 0 in
    if bit_shift = 0 then Array.blit a limb_shift r 0 lr
    else
      for i = 0 to lr - 1 do
        let lo = a.(i + limb_shift) lsr bit_shift in
        let hi =
          if i + limb_shift + 1 < la then
            (a.(i + limb_shift + 1) lsl (limb_bits - bit_shift)) land limb_mask
          else 0
        in
        r.(i) <- lo lor hi
      done;
    normalize r
  end

let bits_in_limb v =
  (* number of significant bits of v, v in [0, limb_base) *)
  let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let mag_num_bits a =
  let la = Array.length a in
  if la = 0 then 0 else ((la - 1) * limb_bits) + bits_in_limb a.(la - 1)

(* division by a single limb; returns (quotient, remainder as int) *)
let mag_divmod_int a d =
  if d = 0 then raise Division_by_zero;
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl limb_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (normalize q, !r)

(* Knuth algorithm D. Preconditions: |v| >= 2 limbs, u >= v. *)
let mag_divmod_knuth u v =
  let n = Array.length v in
  let m = Array.length u in
  let shift = limb_bits - bits_in_limb v.(n - 1) in
  let vn = if shift = 0 then Array.copy v else Array.make n 0 in
  if shift > 0 then begin
    let carry = ref 0 in
    for i = 0 to n - 1 do
      let s = (v.(i) lsl shift) lor !carry in
      vn.(i) <- s land limb_mask;
      carry := s lsr limb_bits
    done;
    assert (!carry = 0)
  end;
  let un = Array.make (m + 1) 0 in
  if shift = 0 then Array.blit u 0 un 0 m
  else begin
    let carry = ref 0 in
    for i = 0 to m - 1 do
      let s = (u.(i) lsl shift) lor !carry in
      un.(i) <- s land limb_mask;
      carry := s lsr limb_bits
    done;
    un.(m) <- !carry
  end;
  let q = Array.make (m - n + 1) 0 in
  for j = m - n downto 0 do
    let num = (un.(j + n) lsl limb_bits) lor un.(j + n - 1) in
    let qhat = ref (num / vn.(n - 1)) and rhat = ref (num mod vn.(n - 1)) in
    if !qhat >= limb_base then begin
      qhat := limb_base - 1;
      rhat := num - (!qhat * vn.(n - 1))
    end;
    while
      !rhat < limb_base
      && !qhat * vn.(n - 2) > (!rhat lsl limb_bits) lor un.(j + n - 2)
    do
      decr qhat;
      rhat := !rhat + vn.(n - 1)
    done;
    (* multiply-and-subtract *)
    let borrow = ref 0 and carry = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * vn.(i)) + !carry in
      carry := p lsr limb_bits;
      let d = un.(i + j) - (p land limb_mask) - !borrow in
      if d < 0 then (un.(i + j) <- d + limb_base; borrow := 1)
      else (un.(i + j) <- d; borrow := 0)
    done;
    let top = un.(j + n) - !carry - !borrow in
    if top < 0 then begin
      (* qhat was one too large: add the divisor back *)
      decr qhat;
      let c = ref 0 in
      for i = 0 to n - 1 do
        let s = un.(i + j) + vn.(i) + !c in
        un.(i + j) <- s land limb_mask;
        c := s lsr limb_bits
      done;
      un.(j + n) <- (top + limb_base + !c) land limb_mask
    end
    else un.(j + n) <- top;
    q.(j) <- !qhat
  done;
  let r = Array.sub un 0 n in
  let r =
    if shift = 0 then r
    else begin
      let r' = Array.make n 0 in
      for i = 0 to n - 1 do
        let lo = r.(i) lsr shift in
        let hi =
          if i + 1 < n then (r.(i + 1) lsl (limb_bits - shift)) land limb_mask
          else 0
        in
        r'.(i) <- lo lor hi
      done;
      r'
    end
  in
  (normalize q, normalize r)

let mag_divmod u v =
  let lv = Array.length v in
  if lv = 0 then raise Division_by_zero
  else if mag_compare u v < 0 then (mag_zero, normalize (Array.copy u))
  else if lv = 1 then begin
    let q, r = mag_divmod_int u v.(0) in
    (q, if r = 0 then mag_zero else [| r |])
  end
  else mag_divmod_knuth u v

(* ------------------------------------------------------------------ *)
(* Signed layer                                                        *)
(* ------------------------------------------------------------------ *)

let make sign mag =
  let mag = normalize mag in
  if Array.length mag = 0 then { sign = 0; mag = mag_zero }
  else { sign = (if sign >= 0 then 1 else -1); mag }

let zero = { sign = 0; mag = mag_zero }
let one = { sign = 1; mag = [| 1 |] }
let two = { sign = 1; mag = [| 2 |] }
let minus_one = { sign = -1; mag = [| 1 |] }

let of_int v =
  if v = 0 then zero
  else begin
    let sign = if v < 0 then -1 else 1 in
    (* min_int has no positive counterpart; go through a 3-limb split *)
    let a = if v = Stdlib.min_int then v else Stdlib.abs v in
    let l0 = a land limb_mask in
    let l1 = (a lsr limb_bits) land limb_mask in
    let l2 = (a lsr (2 * limb_bits)) land (limb_mask lsr (3 * limb_bits - 63)) in
    make sign [| l0; l1; l2 |]
  end

let to_int_opt x =
  let n = Array.length x.mag in
  if n = 0 then Some 0
  else if mag_num_bits x.mag > 62 then
    (* the only 63-bit value that fits is min_int = -2^62 *)
    if x.sign < 0 && x.mag = [| 0; 0; 4 |] then Some Stdlib.min_int else None
  else begin
    let v = ref 0 in
    for i = n - 1 downto 0 do
      v := (!v lsl limb_bits) lor x.mag.(i)
    done;
    Some (if x.sign < 0 then - !v else !v)
  end

let to_int x =
  match to_int_opt x with
  | Some v -> v
  | None -> failwith "Bigint.to_int: overflow"

let sign x = x.sign
let is_zero x = x.sign = 0
let is_one x = x.sign = 1 && Array.length x.mag = 1 && x.mag.(0) = 1
let is_even x = x.sign = 0 || x.mag.(0) land 1 = 0
let is_odd x = not (is_even x)

let compare a b =
  if a.sign <> b.sign then Stdlib.compare a.sign b.sign
  else if a.sign >= 0 then mag_compare a.mag b.mag
  else mag_compare b.mag a.mag

let equal a b = compare a b = 0
let neg x = if x.sign = 0 then x else { x with sign = -x.sign }
let abs x = if x.sign < 0 then { x with sign = 1 } else x

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then make a.sign (mag_add a.mag b.mag)
  else begin
    let c = mag_compare a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then make a.sign (mag_sub a.mag b.mag)
    else make b.sign (mag_sub b.mag a.mag)
  end

let sub a b = add a (neg b)
let succ x = add x one
let pred x = sub x one

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else make (a.sign * b.sign) (mag_mul a.mag b.mag)

let mul_int a m =
  if m = 0 || a.sign = 0 then zero
  else begin
    let s = if m < 0 then -a.sign else a.sign in
    let m = Stdlib.abs m in
    if m < limb_base then make s (mag_mul_int a.mag m)
    else make s (mag_mul a.mag (of_int m).mag)
  end

let add_int a v = add a (of_int v)

let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  let q, r = mag_divmod a.mag b.mag in
  (make (a.sign * b.sign) q, make a.sign r)

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let ediv_rem a b =
  let q, r = divmod a b in
  if r.sign >= 0 then (q, r)
  else if b.sign > 0 then (sub q one, add r b)
  else (add q one, sub r b)

let erem a b = snd (ediv_rem a b)

let shift_left x n =
  if n < 0 then invalid_arg "Bigint.shift_left";
  if x.sign < 0 then invalid_arg "Bigint.shift_left: negative value";
  if x.sign = 0 then zero else make 1 (mag_shift_left x.mag n)

let shift_right x n =
  if n < 0 then invalid_arg "Bigint.shift_right";
  if x.sign < 0 then invalid_arg "Bigint.shift_right: negative value";
  if x.sign = 0 then zero else make 1 (mag_shift_right x.mag n)

let bitwise op a b =
  if a.sign < 0 || b.sign < 0 then invalid_arg "Bigint: negative bit operand";
  let la = Array.length a.mag and lb = Array.length b.mag in
  let n = Stdlib.max la lb in
  let r = Array.make n 0 in
  for i = 0 to n - 1 do
    let x = if i < la then a.mag.(i) else 0 in
    let y = if i < lb then b.mag.(i) else 0 in
    r.(i) <- op x y
  done;
  make 1 r

let logand = bitwise ( land )
let logor = bitwise ( lor )
let logxor = bitwise ( lxor )

let testbit x i =
  if i < 0 then invalid_arg "Bigint.testbit";
  if x.sign < 0 then invalid_arg "Bigint.testbit: negative value";
  let limb = i / limb_bits and bit = i mod limb_bits in
  limb < Array.length x.mag && (x.mag.(limb) lsr bit) land 1 = 1

let num_bits x = mag_num_bits x.mag

let gcd a b =
  let rec go a b = if Array.length b = 0 then a else go b (snd (mag_divmod a b)) in
  let m = go (abs a).mag (abs b).mag in
  make 1 m

(* Limbs in use among the first [n] of [x] *)
let rec used x n = if n > 0 && x.(n - 1) = 0 then used x (n - 1) else n

(* Lehmer's extended Euclid (Knuth, TAOCP vol. 2, §4.5.2, Algorithm L) on
   (m, a mod m), keeping only the coefficient of a: every remainder r has
   r ≡ s·a (mod m) beside it, so the coefficient beside a last remainder
   of 1 is the inverse.

   With r_0 = m, s_0 = 0, r_1 = a and s_1 = 1, Euclid's s_i has the sign
   of (−1)^(i+1), so |s_(i+1)| = |s_(i−1)| + q_i·|s_i|: the loop keeps the
   magnitudes beside u = r_(i−1) and v = r_i, and the parity of i.

   Each pass reads the leading 30 bits of u and the bits of v at the same
   offset, and runs Euclid on them for as long as Knuth's test shows that
   each quotient is the true one. The k steps it simulates make a matrix
   with (u, v) ← (A·u + B·v, C·u + D·v), whose entries stay below one
   limb; the pass applies it in place to both remainders and, entry by
   entry in magnitude (A and B, like C and D, have opposite signs), to both
   coefficients. A pass that simulates no step, as on a quotient of a limb
   or more, takes one full division instead. Once u fits in one limb, the
   pass runs Euclid on it exactly, to the end. No remainder or coefficient
   exceeds m, so four buffers one limb wider than m hold them all. *)
let invert a m =
  if m.sign <= 0 then invalid_arg "Bigint.invert: modulus must be positive";
  let a = erem a m in
  if a.sign = 0 then raise Division_by_zero;
  let w = Array.length m.mag + 1 in
  let fill buf mag =
    Array.fill buf 0 w 0;
    Array.blit mag 0 buf 0 (Array.length mag)
  in
  let limbs mag =
    let buf = Array.make w 0 in
    fill buf mag;
    buf
  in
  let u = ref (limbs m.mag) and v = ref (limbs a.mag) in
  let su = ref (Array.make w 0) and sv = ref (limbs one.mag) in
  (* limbs in use of u (v uses no more) and of the coefficients *)
  let nu = ref (Array.length m.mag) and ns = ref 1 in
  let odd = ref true in
  while used !v !nu > 0 do
    let u' = !u and v' = !v and n = !nu in
    let exact = n = 1 in
    let uh = ref u'.(0) and vh = ref v'.(0) in
    if not exact then begin
      let nb = bits_in_limb u'.(n - 1) in
      uh := (u'.(n - 1) lsl (limb_bits - nb)) lor (u'.(n - 2) lsr nb);
      vh := (v'.(n - 1) lsl (limb_bits - nb)) lor (v'.(n - 2) lsr nb)
    end;
    let ca = ref 1 and cb = ref 0 and cc = ref 0 and cd = ref 1 and k = ref 0 in
    let go = ref true in
    while !go do
      (* 0 stops the pass: a true quotient is at least 1, as u > v *)
      let q =
        if exact then if !vh = 0 then 0 else !uh / !vh
        else if !vh + !cc <= 0 || !vh + !cd <= 0 then 0
        else begin
          let q = (!uh + !ca) / (!vh + !cc) in
          if q = (!uh + !cb) / (!vh + !cd) then q else 0
        end
      in
      let c' = !ca - (q * !cc) and d' = !cb - (q * !cd) in
      if q = 0 || Stdlib.abs c' >= limb_base || Stdlib.abs d' >= limb_base then go := false
      else begin
        ca := !cc;
        cb := !cd;
        cc := c';
        cd := d';
        let t = !uh - (q * !vh) in
        uh := !vh;
        vh := t;
        incr k
      end
    done;
    if !k = 0 then begin
      (* (u, v) ← (v, u mod v), and s_(i+1) from the full quotient *)
      let q, r = mag_divmod (Array.sub u' 0 n) (normalize (Array.sub v' 0 n)) in
      let s =
        mag_add (normalize (Array.sub !su 0 !ns))
          (mag_mul q (normalize (Array.sub !sv 0 !ns)))
      in
      let su' = !su in
      u := v';
      v := u';
      fill u' r;
      su := !sv;
      sv := su';
      fill su' s;
      ns := Stdlib.max !ns (Array.length s);
      odd := not !odd
    end
    else begin
      let a = !ca and b = !cb and c = !cc and d = !cd in
      let cu = ref 0 and cv = ref 0 in
      for j = 0 to n - 1 do
        let x = u'.(j) and y = v'.(j) in
        let t = (a * x) + (b * y) + !cu in
        u'.(j) <- t land limb_mask;
        cu := t asr limb_bits;
        let t = (c * x) + (d * y) + !cv in
        v'.(j) <- t land limb_mask;
        cv := t asr limb_bits
      done;
      assert (!cu = 0 && !cv = 0);
      let a = Stdlib.abs a and b = Stdlib.abs b in
      let c = Stdlib.abs c and d = Stdlib.abs d in
      let su' = !su and sv' = !sv in
      let width = Stdlib.min (!ns + 2) w in
      for j = 0 to width - 1 do
        let x = su'.(j) and y = sv'.(j) in
        let t = (a * x) + (b * y) + !cu in
        su'.(j) <- t land limb_mask;
        cu := t lsr limb_bits;
        let t = (c * x) + (d * y) + !cv in
        sv'.(j) <- t land limb_mask;
        cv := t lsr limb_bits
      done;
      assert (!cu = 0 && !cv = 0);
      ns := used sv' width;
      if !k land 1 = 1 then odd := not !odd
    end;
    nu := used !u n
  done;
  if not (!nu = 1 && !u.(0) = 1) then raise Division_by_zero;
  (* u = r_(i−1), whose coefficient has the sign of (−1)^i *)
  let s = make 1 (Array.sub !su 0 !ns) in
  erem (if !odd then neg s else s) m

(* ------------------------------------------------------------------ *)
(* Byte / string conversions                                           *)
(* ------------------------------------------------------------------ *)

let byte_of_mag mag i =
  (* byte i (little-endian byte index) of the magnitude *)
  let bit = 8 * i in
  let limb = bit / limb_bits and off = bit mod limb_bits in
  let n = Array.length mag in
  if limb >= n then 0
  else begin
    let lo = mag.(limb) lsr off in
    let v =
      if off > limb_bits - 8 && limb + 1 < n then
        lo lor (mag.(limb + 1) lsl (limb_bits - off))
      else lo
    in
    v land 0xff
  end

let to_bytes_be ?width x =
  if x.sign < 0 then invalid_arg "Bigint.to_bytes_be: negative value";
  let nbytes = (num_bits x + 7) / 8 in
  let w =
    match width with
    | None -> Stdlib.max nbytes 1
    | Some w ->
      if w < nbytes then invalid_arg "Bigint.to_bytes_be: width too small";
      w
  in
  let b = Bytes.make w '\000' in
  for i = 0 to Stdlib.min nbytes w - 1 do
    Bytes.set b (w - 1 - i) (Char.chr (byte_of_mag x.mag i))
  done;
  Bytes.unsafe_to_string b

let of_bytes_be s =
  let n = String.length s in
  let nlimbs = ((8 * n) + limb_bits - 1) / limb_bits in
  let mag = Array.make (Stdlib.max nlimbs 1) 0 in
  for i = 0 to n - 1 do
    (* byte i from the end is little-endian byte index i *)
    let v = Char.code s.[n - 1 - i] in
    let bit = 8 * i in
    let limb = bit / limb_bits and off = bit mod limb_bits in
    mag.(limb) <- mag.(limb) lor ((v lsl off) land limb_mask);
    if off > limb_bits - 8 then begin
      let spill = v lsr (limb_bits - off) in
      if spill <> 0 then mag.(limb + 1) <- mag.(limb + 1) lor spill
    end
  done;
  make 1 mag

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "Bigint: bad hex digit"

let of_hex s =
  let acc = ref zero in
  String.iter
    (fun c ->
      if c <> '_' then acc := add_int (shift_left !acc 4) (hex_digit c))
    s;
  !acc

let to_hex x =
  if x.sign = 0 then "0"
  else begin
    let nbytes = (num_bits x + 7) / 8 in
    let buf = Buffer.create ((2 * nbytes) + 1) in
    if x.sign < 0 then Buffer.add_char buf '-';
    let started = ref false in
    for i = nbytes - 1 downto 0 do
      let v = byte_of_mag x.mag i in
      if !started then Buffer.add_string buf (Printf.sprintf "%02x" v)
      else if v <> 0 then begin
        started := true;
        Buffer.add_string buf (Printf.sprintf "%x" v)
      end
    done;
    Buffer.contents buf
  end

let of_string s =
  let n = String.length s in
  if n = 0 then invalid_arg "Bigint.of_string: empty";
  let negative, start =
    match s.[0] with '-' -> (true, 1) | '+' -> (false, 1) | _ -> (false, 0)
  in
  if n - start = 0 then invalid_arg "Bigint.of_string: empty";
  let v =
    if n - start > 2 && s.[start] = '0' && (s.[start + 1] = 'x' || s.[start + 1] = 'X')
    then of_hex (String.sub s (start + 2) (n - start - 2))
    else begin
      let acc = ref zero in
      for i = start to n - 1 do
        match s.[i] with
        | '0' .. '9' as c ->
          acc := add_int (mul_int !acc 10) (Char.code c - Char.code '0')
        | '_' -> ()
        | _ -> invalid_arg "Bigint.of_string: bad digit"
      done;
      !acc
    end
  in
  if negative then neg v else v

let to_string x =
  if x.sign = 0 then "0"
  else begin
    let chunks = ref [] in
    let m = ref x.mag in
    while Array.length !m > 0 do
      let q, r = mag_divmod_int !m 1_000_000_000 in
      chunks := r :: !chunks;
      m := q
    done;
    let buf = Buffer.create 32 in
    if x.sign < 0 then Buffer.add_char buf '-';
    (match !chunks with
    | [] -> Buffer.add_char buf '0'
    | first :: rest ->
      Buffer.add_string buf (string_of_int first);
      List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest);
    Buffer.contents buf
  end

(* ------------------------------------------------------------------ *)
(* Randomness                                                          *)
(* ------------------------------------------------------------------ *)

let random_bits rng nbits =
  if nbits < 0 then invalid_arg "Bigint.random_bits";
  if nbits = 0 then zero
  else begin
    let nbytes = (nbits + 7) / 8 in
    let s = rng nbytes in
    if String.length s <> nbytes then invalid_arg "Bigint.random_bits: bad rng";
    let x = of_bytes_be s in
    let excess = (8 * nbytes) - nbits in
    if excess = 0 then x
    else logand x (sub (shift_left one nbits) one)
  end

let random_below rng bound =
  if compare bound zero <= 0 then invalid_arg "Bigint.random_below";
  let nbits = num_bits bound in
  let rec draw () =
    let x = random_bits rng nbits in
    if compare x bound < 0 then x else draw ()
  in
  draw ()

let random_range rng lo hi =
  if compare lo hi >= 0 then invalid_arg "Bigint.random_range";
  add lo (random_below rng (sub hi lo))

(* ------------------------------------------------------------------ *)
(* Miscellanea                                                         *)
(* ------------------------------------------------------------------ *)

let pp fmt x = Format.pp_print_string fmt (to_string x)

module Internal = struct
  let limb_bits = limb_bits
  let limb_mask = limb_mask
  let magnitude x = x.mag
  let of_magnitude m = make 1 m
end
