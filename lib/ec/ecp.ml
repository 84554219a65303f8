(* The curve y² = x³ + ax + b over F_p in two shapes, a = −3 (the secp
   curves) and a = 1 with b = 0 (the type-A pairing curve y² = x³ + x):
   its equation, its group law and its scalar multiplication.

   Points are affine in Montgomery form. Additions use one field inversion
   each; scalar multiplication switches to Jacobian coordinates to avoid
   per-step inversions, and the pairing's Miller loop walks the same
   Jacobian steps, hearing of each line they draw. Each shape has one
   Jacobian doubling; the b = 0 one reads Y² off the equation, so every
   point handed to the group law must lie on the curve. Nothing here is
   counted: each caller counts its own operations. *)

open Peace_bigint

(* [minus3] tells the shapes apart: a = −3, or a = 1 and b = 0 *)
type t = { fp : Mont.ctx; a : Mont.elt; b : Mont.elt; minus3 : bool }

type point = Infinity | Affine of { x : Mont.elt; y : Mont.elt }

let make fp ~a ~b =
  let p = Mont.modulus fp in
  let a = Bigint.erem a p and b = Bigint.erem b p in
  let minus3 = Bigint.equal a (Bigint.sub p (Bigint.of_int 3)) in
  if not (minus3 || (Bigint.equal a Bigint.one && Bigint.is_zero b)) then
    invalid_arg "Ecp.make: a must be -3, or 1 with b = 0";
  { fp; a = Mont.of_bigint fp a; b = Mont.of_bigint fp b; minus3 }

(* x³ + ax + b, as x·(x² + a) + b *)
let rhs c x =
  let fp = c.fp in
  Mont.add fp (Mont.mul fp (Mont.add fp (Mont.sqr fp x) c.a) x) c.b

let on_curve c = function
  | Infinity -> true
  | Affine { x; y } -> Mont.equal c.fp (Mont.sqr c.fp y) (rhs c x)

let of_affine c ~x ~y =
  let p = Affine { x = Mont.of_bigint c.fp x; y = Mont.of_bigint c.fp y } in
  if on_curve c p then Some p else None

let lift c x = Mont.sqrt c.fp (rhs c x)

let is_infinity = function Infinity -> true | Affine _ -> false

let to_affine c = function
  | Infinity -> None
  | Affine { x; y } -> Some (Mont.to_bigint c.fp x, Mont.to_bigint c.fp y)

let neg c = function
  | Infinity -> Infinity
  | Affine { x; y } -> Affine { x; y = Mont.neg c.fp y }

let equal c p q =
  match (p, q) with
  | Infinity, Infinity -> true
  | Infinity, Affine _ | Affine _, Infinity -> false
  | Affine a, Affine b -> Mont.equal c.fp a.x b.x && Mont.equal c.fp a.y b.y

(* P + Q from the slope λ of the line through P = (x1, y1) and Q = (x2, _):
   the line meets the curve again at −(P + Q) *)
let sum_on_line fp lambda x1 y1 x2 =
  let x3 = Mont.sub fp (Mont.sub fp (Mont.sqr fp lambda) x1) x2 in
  let y3 = Mont.sub fp (Mont.mul fp lambda (Mont.sub fp x1 x3)) y1 in
  Affine { x = x3; y = y3 }

(* 3x² + a, the numerator of the tangent's slope at (x, _) *)
let tangent_numerator c x =
  let fp = c.fp in
  let xx = Mont.sqr fp x in
  Mont.add fp (Mont.add fp (Mont.add fp xx xx) xx) c.a

let double c p =
  let fp = c.fp in
  match p with
  | Infinity -> Infinity
  | Affine { x; y } ->
    if Mont.is_zero fp y then Infinity
    else begin
      (* λ = (3x² + a) / 2y *)
      let lambda = Mont.mul fp (tangent_numerator c x) (Mont.inv fp (Mont.add fp y y)) in
      sum_on_line fp lambda x y x
    end

let add c p q =
  let fp = c.fp in
  match (p, q) with
  | Infinity, r | r, Infinity -> r
  | Affine a, Affine b ->
    if Mont.equal fp a.x b.x then
      if Mont.equal fp a.y b.y then double c p else Infinity
    else begin
      let lambda =
        Mont.mul fp (Mont.sub fp b.y a.y) (Mont.inv fp (Mont.sub fp b.x a.x))
      in
      sum_on_line fp lambda a.x a.y b.x
    end

(* P + Qₖ for every k, with [add]'s cases: a chord where the x differ, the
   tangent where Qₖ = P, O where Qₖ = −P (or P = Qₖ has order 2). Every
   slope's denominator is collected first and inverted with the others in
   one [Mont.inv_all]; a sum that draws no line holds the placeholder 1. *)
let add_batch c p qs =
  let fp = c.fp in
  match p with
  | Infinity -> Array.copy qs
  | Affine { x; y } ->
    let chord xk = not (Mont.equal fp x xk) in
    (* tested only where the x agree *)
    let tangent yk = Mont.equal fp y yk && not (Mont.is_zero fp y) in
    let one = Mont.one fp in
    let denominators =
      Array.map
        (function
          | Affine q when chord q.x -> Mont.sub fp q.x x
          | Affine q when tangent q.y -> Mont.add fp y y
          | Affine _ | Infinity -> one)
        qs
    in
    let inverse = Mont.inv_all fp denominators in
    Array.mapi
      (fun k -> function
        | Infinity -> p
        | Affine q when chord q.x ->
          sum_on_line fp (Mont.mul fp (Mont.sub fp q.y y) inverse.(k)) x y q.x
        | Affine q when tangent q.y ->
          sum_on_line fp (Mont.mul fp (tangent_numerator c x) inverse.(k)) x y x
        | Affine _ -> Infinity)
      qs

(* --- Jacobian steps, for scalar multiplication and the Miller loop --- *)

(* (X, Y, Z) stands for the affine point (X/Z², Y/Z³). Every step needs
   Z² of the point it starts from, so each step squares the Z it produces
   once and keeps the square beside it, [jzz] = Z². *)
type jac = Jinf | Jac of { jx : Mont.elt; jy : Mont.elt; jz : Mont.elt; jzz : Mont.elt }

(* A step that draws a tangent or a chord calls [line n x3 y3 z3 zz3] with
   the numerator n of its slope n / Z₃, the point (X₃, Y₃, Z₃) it produces
   and Z₃²; a vertical step (Y = 0, O + P, T + (−T)) calls nothing *)
type line = Mont.elt -> Mont.elt -> Mont.elt -> Mont.elt -> Mont.elt -> unit

(* Scalar multiplication listens to no line. A b = 0 doubling handed
   [no_line] skips the tangent's numerator, which there costs two
   additions of its own. *)
let no_line _ _ _ _ _ = ()

let jac_of_affine fp x y =
  let one = Mont.one fp in
  Jac { jx = x; jy = y; jz = one; jzz = one }

(* 2T, with Z₃ = 2YZ; the tangent's numerator is M = 3X² + a·Z⁴ *)
let jac_double c line = function
  | Jinf -> Jinf
  | Jac { jx; jy; jz; jzz = zz } ->
    let fp = c.fp in
    if Mont.is_zero fp jy then Jinf
    else begin
      let z3 =
        let t = Mont.mul fp jy jz in
        Mont.add fp t t
      in
      let zz3 = Mont.sqr fp z3 in
      if c.minus3 then begin
        (* S = 4XY², M = 3(X − Z²)(X + Z²), X₃ = M² − 2S,
           Y₃ = M(S − X₃) − 8Y⁴ *)
        let yy = Mont.sqr fp jy in
        let yyyy = Mont.sqr fp yy in
        let s =
          let t = Mont.mul fp jx yy in
          Mont.add fp (Mont.add fp t t) (Mont.add fp t t)
        in
        let m =
          let t = Mont.mul fp (Mont.sub fp jx zz) (Mont.add fp jx zz) in
          Mont.add fp (Mont.add fp t t) t
        in
        let x3 = Mont.sub fp (Mont.sqr fp m) (Mont.add fp s s) in
        let eight_yyyy =
          let t2 = Mont.add fp yyyy yyyy in
          let t4 = Mont.add fp t2 t2 in
          Mont.add fp t4 t4
        in
        let y3 = Mont.sub fp (Mont.mul fp m (Mont.sub fp s x3)) eight_yyyy in
        line m x3 y3 z3 zz3;
        Jac { jx = x3; jy = y3; jz = z3; jzz = zz3 }
      end
      else begin
        (* b = 0: Y² = X³ + XZ⁴ on the curve. With A = X², C = Z⁴ and
           D = A − C, the general X₃ = M² − 8XY² is D² and the general
           Y₃ = M(4XY² − X₃) − 8Y⁴ is D·(2(A + C)² − D²), with
           M = 3A + C: 2M + 5S and 5 additions, against 3M + 6S and 14
           for the general formula *)
        let a = Mont.sqr fp jx and cc = Mont.sqr fp zz in
        let d = Mont.sub fp a cc and a_c = Mont.add fp a cc in
        let x3 = Mont.sqr fp d in
        let y3 =
          let e = Mont.sqr fp a_c in
          Mont.mul fp d (Mont.sub fp (Mont.add fp e e) x3)
        in
        if line != no_line then line (Mont.add fp (Mont.add fp a_c a) a) x3 y3 z3 zz3;
        Jac { jx = x3; jy = y3; jz = z3; jzz = zz3 }
      end
    end

(* The sum of two Jacobian points from U1 = X1·Z2², U2 = X2·Z1²,
   S1 = Y1·Z2³, S2 = Y2·Z1³ and z = Z1·Z2; [p] is the first addend, doubled
   when the two coincide *)
let jac_sum c line p u1 u2 s1 s2 z =
  let fp = c.fp in
  if Mont.equal fp u1 u2 then
    if Mont.equal fp s1 s2 then jac_double c line p else Jinf
  else begin
    let h = Mont.sub fp u2 u1 in
    let hh = Mont.sqr fp h in
    let hhh = Mont.mul fp h hh in
    let r = Mont.sub fp s2 s1 in
    let v = Mont.mul fp u1 hh in
    let x3 = Mont.sub fp (Mont.sub fp (Mont.sqr fp r) hhh) (Mont.add fp v v) in
    let y3 = Mont.sub fp (Mont.mul fp r (Mont.sub fp v x3)) (Mont.mul fp s1 hhh) in
    let z3 = Mont.mul fp z h in
    let zz3 = Mont.sqr fp z3 in
    line r x3 y3 z3 zz3;
    Jac { jx = x3; jy = y3; jz = z3; jzz = zz3 }
  end

(* mixed addition: q is affine, Z2 = 1 *)
let jac_add_affine c line p qx qy =
  let fp = c.fp in
  match p with
  | Jinf -> jac_of_affine fp qx qy
  | Jac { jx; jy; jz; jzz = z1z1 } ->
    jac_sum c line p jx (Mont.mul fp qx z1z1) jy (Mont.mul fp (Mont.mul fp qy jz) z1z1) jz

(* full Jacobian + Jacobian addition, for the odd-multiple tables *)
let jac_add c p q =
  let fp = c.fp in
  match (p, q) with
  | Jinf, r | r, Jinf -> r
  | Jac a, Jac b ->
    jac_sum c no_line p (Mont.mul fp a.jx b.jzz) (Mont.mul fp b.jx a.jzz)
      (Mont.mul fp (Mont.mul fp a.jy b.jz) b.jzz)
      (Mont.mul fp (Mont.mul fp b.jy a.jz) a.jzz)
      (Mont.mul fp a.jz b.jz)

(* the affine point of (X, Y, Z), given zi = 1/Z *)
let scale fp jx jy zi =
  let zi2 = Mont.sqr fp zi in
  Affine { x = Mont.mul fp jx zi2; y = Mont.mul fp jy (Mont.mul fp zi2 zi) }

let jac_to_affine c = function
  | Jinf -> Infinity
  | Jac { jx; jy; jz; _ } -> scale c.fp jx jy (Mont.inv c.fp jz)

(* every point of the rows of [jacs] in affine, with one shared inversion *)
let to_affine_all c jacs =
  let fp = c.fp in
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
          out.(j) <- scale fp jx jy zinv.(!next);
          incr next
      done;
      out)
    jacs

(* --- signed-window (wNAF) scalar multiplication --- *)

(* 4 up to 256-bit scalars, 5 beyond (G1's cofactor h), where fewer chain
   additions repay the larger table *)
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
let straus_jac c terms =
  let w =
    window_bits (Array.fold_left (fun m (k, _, _) -> max m (Bigint.num_bits k)) 0 terms)
  in
  let digits = Array.map (fun (k, _, _) -> wnaf w k) terms in
  let jacs =
    Array.map2
      (fun (_, x, y) d ->
        let p = jac_of_affine c.fp x y in
        let half = (Array.fold_left (fun m x -> max m (abs x)) 0 d + 1) / 2 in
        let row = Array.make half p in
        if half > 1 then begin
          let two_p = jac_double c no_line p in
          for j = 1 to half - 1 do
            row.(j) <- jac_add c row.(j - 1) two_p
          done
        end;
        row)
      terms digits
  in
  let table = to_affine_all c jacs in
  let acc = ref Jinf in
  for i = Array.fold_left (fun m d -> max m (Array.length d)) 0 digits - 1 downto 0 do
    acc := jac_double c no_line !acc;
    for t = 0 to Array.length digits - 1 do
      let d = if i < Array.length digits.(t) then digits.(t).(i) else 0 in
      if d <> 0 then
        match table.(t).(abs d / 2) with
        | Infinity -> ()
        | Affine { x; y } ->
          acc := jac_add_affine c no_line !acc x (if d > 0 then y else Mont.neg c.fp y)
    done
  done;
  !acc

(* Σ k·P over (k, P) pairs; infinity and zero scalars add nothing *)
let straus c terms =
  let live =
    List.filter_map
      (fun (k, p) ->
        if Bigint.sign k < 0 then invalid_arg "Ecp.mul: negative scalar";
        match p with
        | Affine { x; y } when Bigint.sign k > 0 -> Some (k, x, y)
        | Affine _ | Infinity -> None)
      terms
  in
  jac_to_affine c (straus_jac c (Array.of_list live))

let mul c k p = straus c [ (k, p) ]
let mul2 c a p b q = straus c [ (a, p); (b, q) ]

(* Every Jacobian point the formulas build has Z ≠ 0, so O is only Jinf *)
let mul_is_infinity c k x y =
  match straus_jac c [| (k, x, y) |] with Jinf -> true | Jac _ -> false
