(* Group arithmetic on E : y² = x³ + x over F_p.

   Points are affine in Montgomery form. Additions use one field inversion
   each; scalar multiplication switches to Jacobian coordinates internally
   to avoid per-step inversions. *)

open Peace_bigint
open Peace_hash

type point = Infinity | Affine of { x : Mont.elt; y : Mont.elt }

let infinity = Infinity
let is_infinity = function Infinity -> true | Affine _ -> false

let on_curve_raw fp x y =
  (* y² = x³ + x *)
  let y2 = Mont.sqr fp y in
  let x3 = Mont.mul fp (Mont.sqr fp x) x in
  Mont.equal fp y2 (Mont.add fp x3 x)

let of_affine params ~x ~y =
  let fp = params.Params.fp in
  let mx = Mont.of_bigint fp x and my = Mont.of_bigint fp y in
  if not (on_curve_raw fp mx my) then invalid_arg "G1.of_affine: not on curve";
  Affine { x = mx; y = my }

let generator params = of_affine params ~x:params.Params.gx ~y:params.Params.gy

let to_affine params = function
  | Infinity -> None
  | Affine { x; y } ->
    Some (Mont.to_bigint params.Params.fp x, Mont.to_bigint params.Params.fp y)

let coords = function Infinity -> None | Affine { x; y } -> Some (x, y)

let neg params = function
  | Infinity -> Infinity
  | Affine { x; y } -> Affine { x; y = Mont.neg params.Params.fp y }

let equal params p q =
  match (p, q) with
  | Infinity, Infinity -> true
  | Infinity, Affine _ | Affine _, Infinity -> false
  | Affine a, Affine b ->
    let fp = params.Params.fp in
    Mont.equal fp a.x b.x && Mont.equal fp a.y b.y

let on_curve params = function
  | Infinity -> true
  | Affine { x; y } -> on_curve_raw params.Params.fp x y

let double params p =
  let fp = params.Params.fp in
  match p with
  | Infinity -> Infinity
  | Affine { x; y } ->
    if Mont.is_zero fp y then Infinity
    else begin
      (* λ = (3x² + 1) / 2y *)
      let xx = Mont.sqr fp x in
      let num = Mont.add fp (Mont.add fp (Mont.add fp xx xx) xx) (Mont.one fp) in
      let lambda = Mont.mul fp num (Mont.inv fp (Mont.add fp y y)) in
      let x3 = Mont.sub fp (Mont.sqr fp lambda) (Mont.add fp x x) in
      let y3 = Mont.sub fp (Mont.mul fp lambda (Mont.sub fp x x3)) y in
      Affine { x = x3; y = y3 }
    end

let add params p q =
  let fp = params.Params.fp in
  match (p, q) with
  | Infinity, r | r, Infinity -> r
  | Affine a, Affine b ->
    if Mont.equal fp a.x b.x then
      if Mont.equal fp a.y b.y then double params p else Infinity
    else begin
      let lambda =
        Mont.mul fp (Mont.sub fp b.y a.y) (Mont.inv fp (Mont.sub fp b.x a.x))
      in
      let x3 = Mont.sub fp (Mont.sub fp (Mont.sqr fp lambda) a.x) b.x in
      let y3 = Mont.sub fp (Mont.mul fp lambda (Mont.sub fp a.x x3)) a.y in
      Affine { x = x3; y = y3 }
    end

(* --- Jacobian internals for scalar multiplication (a = 1 curve) --- *)

type jac = Jinf | Jac of { jx : Mont.elt; jy : Mont.elt; jz : Mont.elt }

let jac_double fp = function
  | Jinf -> Jinf
  | Jac { jx; jy; jz } ->
    if Mont.is_zero fp jy then Jinf
    else begin
      let xx = Mont.sqr fp jx in
      let yy = Mont.sqr fp jy in
      let yyyy = Mont.sqr fp yy in
      let s =
        let t = Mont.mul fp jx yy in
        Mont.add fp (Mont.add fp t t) (Mont.add fp t t)
      in
      (* M = 3X² + Z⁴ since a = 1 *)
      let zz = Mont.sqr fp jz in
      let m =
        Mont.add fp (Mont.add fp (Mont.add fp xx xx) xx) (Mont.sqr fp zz)
      in
      let x3 = Mont.sub fp (Mont.sqr fp m) (Mont.add fp s s) in
      let eight_yyyy =
        let t2 = Mont.add fp yyyy yyyy in
        let t4 = Mont.add fp t2 t2 in
        Mont.add fp t4 t4
      in
      let y3 = Mont.sub fp (Mont.mul fp m (Mont.sub fp s x3)) eight_yyyy in
      let z3 =
        let t = Mont.mul fp jy jz in
        Mont.add fp t t
      in
      Jac { jx = x3; jy = y3; jz = z3 }
    end

(* mixed addition: q is affine *)
let jac_add_affine fp p qx qy =
  match p with
  | Jinf -> Jac { jx = qx; jy = qy; jz = Mont.one fp }
  | Jac { jx; jy; jz } ->
    let z1z1 = Mont.sqr fp jz in
    let u2 = Mont.mul fp qx z1z1 in
    let s2 = Mont.mul fp (Mont.mul fp qy jz) z1z1 in
    if Mont.equal fp jx u2 then
      if Mont.equal fp jy s2 then jac_double fp p else Jinf
    else begin
      let h = Mont.sub fp u2 jx in
      let hh = Mont.sqr fp h in
      let hhh = Mont.mul fp h hh in
      let r = Mont.sub fp s2 jy in
      let v = Mont.mul fp jx hh in
      let x3 = Mont.sub fp (Mont.sub fp (Mont.sqr fp r) hhh) (Mont.add fp v v) in
      let y3 =
        Mont.sub fp (Mont.mul fp r (Mont.sub fp v x3)) (Mont.mul fp jy hhh)
      in
      Jac { jx = x3; jy = y3; jz = Mont.mul fp jz h }
    end

let jac_to_affine fp = function
  | Jinf -> Infinity
  | Jac { jx; jy; jz } ->
    let zinv = Mont.inv fp jz in
    let zinv2 = Mont.sqr fp zinv in
    Affine
      { x = Mont.mul fp jx zinv2; y = Mont.mul fp jy (Mont.mul fp zinv2 zinv) }

(* full Jacobian + Jacobian addition, for the odd-multiple tables *)
let jac_add fp p q =
  match (p, q) with
  | Jinf, r | r, Jinf -> r
  | Jac a, Jac b ->
    let z1z1 = Mont.sqr fp a.jz in
    let z2z2 = Mont.sqr fp b.jz in
    let u1 = Mont.mul fp a.jx z2z2 in
    let u2 = Mont.mul fp b.jx z1z1 in
    let s1 = Mont.mul fp (Mont.mul fp a.jy b.jz) z2z2 in
    let s2 = Mont.mul fp (Mont.mul fp b.jy a.jz) z1z1 in
    if Mont.equal fp u1 u2 then
      if Mont.equal fp s1 s2 then jac_double fp p else Jinf
    else begin
      let h = Mont.sub fp u2 u1 in
      let hh = Mont.sqr fp h in
      let hhh = Mont.mul fp h hh in
      let r = Mont.sub fp s2 s1 in
      let v = Mont.mul fp u1 hh in
      let x3 = Mont.sub fp (Mont.sub fp (Mont.sqr fp r) hhh) (Mont.add fp v v) in
      let y3 =
        Mont.sub fp (Mont.mul fp r (Mont.sub fp v x3)) (Mont.mul fp s1 hhh)
      in
      Jac { jx = x3; jy = y3; jz = Mont.mul fp (Mont.mul fp a.jz b.jz) h }
    end

(* every point of the rows of [jacs] in affine, with one shared inversion *)
let to_affine_all fp jacs =
  let zs = ref [] in
  Array.iter
    (Array.iter (function Jac { jz; _ } -> zs := jz :: !zs | Jinf -> ()))
    jacs;
  let zinv = Mont.inv_all fp (Array.of_list (List.rev !zs)) in
  let next = ref 0 in
  Array.map
    (fun row ->
      let out = Array.make (Array.length row) Infinity in
      for j = 0 to Array.length row - 1 do
        match row.(j) with
        | Jinf -> ()
        | Jac { jx; jy; _ } ->
          let zi = zinv.(!next) in
          incr next;
          let zi2 = Mont.sqr fp zi in
          out.(j) <-
            Affine { x = Mont.mul fp jx zi2; y = Mont.mul fp jy (Mont.mul fp zi2 zi) }
      done;
      out)
    jacs

(* --- signed-window (wNAF) scalar multiplication --- *)

(* 4 up to 256-bit scalars (q and below), 5 beyond (the cofactor h), where
   fewer chain additions repay the larger table *)
let window_bits nbits = if nbits > 256 then 5 else 4

(* Width-w NAF of k >= 0, least significant digit first: every nonzero
   digit is odd with |d| < 2^(w-1), and nonzero digits stand at least w
   places apart. A negative digit carries 1 into the next window; the
   extra top position absorbs the last carry. *)
let wnaf w k =
  let n = Bigint.num_bits k in
  let bit i = if i < n && Bigint.testbit k i then 1 else 0 in
  let digits = Array.make (n + 1) 0 in
  let carry = ref 0 and i = ref 0 in
  while !i <= n do
    if bit !i = !carry then incr i
    else begin
      let width = min w (n + 1 - !i) in
      let word = ref !carry in
      for b = 0 to width - 1 do
        word := !word + (bit (!i + b) lsl b)
      done;
      carry := (!word lsr (w - 1)) land 1;
      digits.(!i) <- !word - (!carry lsl w);
      i := !i + width
    end
  done;
  digits

(* Σ k·(x, y) over the terms (k > 0, (x, y) affine), left in Jacobian
   coordinates. Straus's interleaving: one doubling chain serves every
   term, and each nonzero wNAF digit d of a term adds |d|·P from that
   term's table of odd multiples P, 3P, 5P, …, built only as far as its
   largest digit and brought to affine with one inversion for all terms,
   so every chain addition is a mixed one. *)
let straus_jac fp terms =
  let w =
    window_bits (Array.fold_left (fun m (k, _, _) -> max m (Bigint.num_bits k)) 0 terms)
  in
  let digits = Array.map (fun (k, _, _) -> wnaf w k) terms in
  let jacs =
    Array.map2
      (fun (_, x, y) d ->
        let p = Jac { jx = x; jy = y; jz = Mont.one fp } in
        let half = (Array.fold_left (fun m x -> max m (abs x)) 0 d + 1) / 2 in
        let row = Array.make half p in
        if half > 1 then begin
          let two_p = jac_double fp p in
          for j = 1 to half - 1 do
            row.(j) <- jac_add fp row.(j - 1) two_p
          done
        end;
        row)
      terms digits
  in
  let table = to_affine_all fp jacs in
  let acc = ref Jinf in
  for i = Array.fold_left (fun m d -> max m (Array.length d)) 0 digits - 1 downto 0 do
    acc := jac_double fp !acc;
    for t = 0 to Array.length digits - 1 do
      let d = if i < Array.length digits.(t) then digits.(t).(i) else 0 in
      if d <> 0 then
        match table.(t).(abs d / 2) with
        | Infinity -> ()
        | Affine { x; y } ->
          acc := jac_add_affine fp !acc x (if d > 0 then y else Mont.neg fp y)
    done
  done;
  !acc

(* Σ k·P over (k, P) pairs; infinity and zero scalars add nothing *)
let straus params terms =
  let live =
    List.filter_map
      (fun (k, p) ->
        if Bigint.sign k < 0 then invalid_arg "G1.mul: negative scalar";
        match p with
        | Affine { x; y } when Bigint.sign k > 0 -> Some (k, x, y)
        | Affine _ | Infinity -> None)
      terms
  in
  let fp = params.Params.fp in
  jac_to_affine fp (straus_jac fp (Array.of_list live))

let mul_uncounted params k p = straus params [ (k, p) ]

(* q·(x, y) = O, read off the Jacobian result: no inversion back to affine.
   Every Jacobian point the formulas build has Z ≠ 0, so O is only Jinf. *)
let killed_by_q params x y =
  match straus_jac params.Params.fp [| (params.Params.q, x, y) |] with
  | Jinf -> true
  | Jac _ -> false

let mul params k p =
  Counters.count_g1_mul ();
  mul_uncounted params k p

let mul2 params a p b q =
  Counters.count_g1_mul ();
  Counters.count_g1_mul ();
  straus params [ (a, p); (b, q) ]

let in_subgroup params = function
  | Infinity -> true
  | Affine { x; y } -> on_curve_raw params.Params.fp x y && killed_by_q params x y

let field_width params = (Bigint.num_bits params.Params.p + 7) / 8

(* A square root of x³ + x, all in the cached field context. For
   p ≡ 3 (mod 4), r = rhs^((p+1)/4) is a root exactly when r² = rhs; when
   rhs is a non-residue r² = −rhs instead, so no Jacobi symbol is needed. *)
let sqrt_rhs params x =
  let fp = params.Params.fp in
  let rhs = Mont.add fp (Mont.mul fp (Mont.sqr fp x) x) x in
  let r = Mont.pow fp rhs params.Params.sqrt_exp in
  if Mont.equal fp (Mont.sqr fp r) rhs then Some r else None

let hash_to_point params msg =
  Counters.count_hash_to_g1 ();
  let fp = params.Params.fp in
  let width = field_width params in
  let rec attempt counter =
    if counter > 1000 then failwith "G1.hash_to_point: no point found"
    else begin
      let seed =
        Hmac.hkdf ~info:"peace-h2c" (msg ^ string_of_int counter) (width + 8)
      in
      let x = Mont.of_bigint fp (Bigint.of_bytes_be seed) in
      match sqrt_rhs params x with
      | Some y when not (Mont.is_zero fp y) ->
        let cleared = mul_uncounted params params.Params.h (Affine { x; y }) in
        if is_infinity cleared then attempt (counter + 1) else cleared
      | Some _ | None -> attempt (counter + 1)
    end
  in
  attempt 0

let random params rng =
  let scalar = Bigint.random_range rng Bigint.one params.Params.q in
  mul params scalar (generator params)

let encode params p =
  let width = field_width params in
  match to_affine params p with
  | None -> String.make (width + 1) '\000'
  | Some (x, y) ->
    let parity = if Bigint.is_even y then "\x02" else "\x03" in
    parity ^ Bigint.to_bytes_be ~width x

let decode params s =
  let width = field_width params in
  if String.length s <> width + 1 then None
  else
    match s.[0] with
    | '\x00' ->
      if String.for_all (fun c -> c = '\000') s then Some Infinity else None
    | '\x02' | '\x03' ->
      let x = Bigint.of_bytes_be (String.sub s 1 width) in
      if Bigint.compare x params.Params.p >= 0 then None
      else begin
        let fp = params.Params.fp in
        let x = Mont.of_bigint fp x in
        match sqrt_rhs params x with
        | None -> None
        | Some r ->
          let want_even = s.[0] = '\x02' in
          let y =
            if Bigint.is_even (Mont.to_bigint fp r) = want_even then r
            else Mont.neg fp r
          in
          (* unlike the paper's prime-order MNT G1, the type-A curve has a
             large cofactor: reject on-curve points outside the q-subgroup
             at the trust boundary (small-subgroup defence) *)
          if killed_by_q params x y then Some (Affine { x; y }) else None
      end
    | _ -> None

let pp params fmt p =
  match to_affine params p with
  | None -> Format.pp_print_string fmt "O"
  | Some (x, y) ->
    Format.fprintf fmt "(0x%s, 0x%s)" (Bigint.to_hex x) (Bigint.to_hex y)
