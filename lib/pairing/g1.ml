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

(* full Jacobian + Jacobian addition, for window-table entries *)
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

(* k·(px, py), left in Jacobian coordinates *)
let mul_jac fp k px py =
  let nbits = Bigint.num_bits k in
  if nbits = 0 then Jinf
  else if nbits <= 8 then begin
    (* short scalars: plain double-and-add, no table overhead *)
    let acc = ref Jinf in
    for i = nbits - 1 downto 0 do
      acc := jac_double fp !acc;
      if Bigint.testbit k i then acc := jac_add_affine fp !acc px py
    done;
    !acc
  end
  else begin
    (* 4-bit fixed window *)
    let table = Array.make 16 Jinf in
    table.(1) <- Jac { jx = px; jy = py; jz = Mont.one fp };
    for i = 2 to 15 do
      table.(i) <- jac_add_affine fp table.(i - 1) px py
    done;
    let nwin = (nbits + 3) / 4 in
    let window w =
      let v = ref 0 in
      for b = 3 downto 0 do
        let idx = (4 * w) + b in
        v := (!v lsl 1) lor (if idx < nbits && Bigint.testbit k idx then 1 else 0)
      done;
      !v
    in
    let acc = ref table.(window (nwin - 1)) in
    for w = nwin - 2 downto 0 do
      acc := jac_double fp !acc;
      acc := jac_double fp !acc;
      acc := jac_double fp !acc;
      acc := jac_double fp !acc;
      let v = window w in
      if v <> 0 then acc := jac_add fp !acc table.(v)
    done;
    !acc
  end

let mul_uncounted params k p =
  let fp = params.Params.fp in
  if Bigint.sign k < 0 then invalid_arg "G1.mul: negative scalar";
  match p with
  | Infinity -> Infinity
  | Affine { x; y } -> jac_to_affine fp (mul_jac fp k x y)

(* q·(x, y) = O, read off the Jacobian result: no inversion back to affine.
   Every Jacobian point the formulas build has Z ≠ 0, so O is only Jinf. *)
let killed_by_q params x y =
  match mul_jac params.Params.fp params.Params.q x y with
  | Jinf -> true
  | Jac _ -> false

let mul params k p =
  Counters.count_g1_mul ();
  mul_uncounted params k p

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
