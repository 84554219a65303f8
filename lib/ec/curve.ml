(* Jacobian-coordinate arithmetic on y² = x³ + ax + b over F_p.

   A Jacobian triple (X, Y, Z) represents the affine point (X/Z², Y/Z³);
   Z = 0 encodes the point at infinity. Field elements live in Montgomery
   form throughout. *)

open Peace_bigint

type t = {
  curve_name : string;
  fp : Mont.ctx;
  a : Mont.elt;
  b : Mont.elt;
  a_is_minus3 : bool;
  base_point : point;
  n : Bigint.t;
  h : int;
  p : Bigint.t;
  size : int; (* bytes per field element *)
}

and point = { x : Mont.elt; y : Mont.elt; z : Mont.elt; inf : bool }

let name c = c.curve_name
let order c = c.n
let cofactor c = c.h
let base c = c.base_point
let byte_size c = c.size
let is_infinity pt = pt.inf

let infinity c =
  let z = Mont.zero c.fp in
  { x = Mont.one c.fp; y = Mont.one c.fp; z; inf = true }

let on_curve_raw fp a b x y =
  (* y² = x³ + ax + b in Montgomery form *)
  let y2 = Mont.sqr fp y in
  let x3 = Mont.mul fp (Mont.sqr fp x) x in
  let rhs = Mont.add fp (Mont.add fp x3 (Mont.mul fp a x)) b in
  Mont.equal fp y2 rhs

let double c p =
  if p.inf then p
  else if Mont.is_zero c.fp p.y then infinity c
  else begin
    let fp = c.fp in
    let xx = Mont.sqr fp p.x in
    let yy = Mont.sqr fp p.y in
    let yyyy = Mont.sqr fp yy in
    (* S = 4·X·Y² *)
    let s =
      let t = Mont.mul fp p.x yy in
      Mont.add fp (Mont.add fp t t) (Mont.add fp t t)
    in
    (* M = 3X² + a·Z⁴  (a = -3 fast path: 3(X - Z²)(X + Z²)) *)
    let m =
      if c.a_is_minus3 then begin
        let zz = Mont.sqr fp p.z in
        let t = Mont.mul fp (Mont.sub fp p.x zz) (Mont.add fp p.x zz) in
        Mont.add fp (Mont.add fp t t) t
      end
      else begin
        let zz = Mont.sqr fp p.z in
        let z4 = Mont.sqr fp zz in
        let three_xx = Mont.add fp (Mont.add fp xx xx) xx in
        Mont.add fp three_xx (Mont.mul fp c.a z4)
      end
    in
    let x3 = Mont.sub fp (Mont.sqr fp m) (Mont.add fp s s) in
    let eight_yyyy =
      let t2 = Mont.add fp yyyy yyyy in
      let t4 = Mont.add fp t2 t2 in
      Mont.add fp t4 t4
    in
    let y3 = Mont.sub fp (Mont.mul fp m (Mont.sub fp s x3)) eight_yyyy in
    let z3 =
      let t = Mont.mul fp p.y p.z in
      Mont.add fp t t
    in
    { x = x3; y = y3; z = z3; inf = false }
  end

let add c p q =
  if p.inf then q
  else if q.inf then p
  else begin
    let fp = c.fp in
    let z1z1 = Mont.sqr fp p.z in
    let z2z2 = Mont.sqr fp q.z in
    let u1 = Mont.mul fp p.x z2z2 in
    let u2 = Mont.mul fp q.x z1z1 in
    let s1 = Mont.mul fp (Mont.mul fp p.y q.z) z2z2 in
    let s2 = Mont.mul fp (Mont.mul fp q.y p.z) z1z1 in
    if Mont.equal fp u1 u2 then
      if Mont.equal fp s1 s2 then double c p else infinity c
    else begin
      let h = Mont.sub fp u2 u1 in
      let hh = Mont.sqr fp h in
      let hhh = Mont.mul fp h hh in
      let r = Mont.sub fp s2 s1 in
      let v = Mont.mul fp u1 hh in
      let x3 = Mont.sub fp (Mont.sub fp (Mont.sqr fp r) hhh) (Mont.add fp v v) in
      let y3 = Mont.sub fp (Mont.mul fp r (Mont.sub fp v x3)) (Mont.mul fp s1 hhh) in
      let z3 = Mont.mul fp (Mont.mul fp p.z q.z) h in
      { x = x3; y = y3; z = z3; inf = false }
    end
  end

let neg c p =
  if p.inf then p else { p with y = Mont.neg c.fp p.y }

let to_affine c p =
  if p.inf then None
  else begin
    let fp = c.fp in
    let zinv = Mont.inv fp p.z in
    let zinv2 = Mont.sqr fp zinv in
    let zinv3 = Mont.mul fp zinv2 zinv in
    Some (Mont.to_bigint fp (Mont.mul fp p.x zinv2),
          Mont.to_bigint fp (Mont.mul fp p.y zinv3))
  end

let equal c p q =
  match (p.inf, q.inf) with
  | true, true -> true
  | true, false | false, true -> false
  | false, false ->
    (* cross-multiply to compare without inversions *)
    let fp = c.fp in
    let z1z1 = Mont.sqr fp p.z and z2z2 = Mont.sqr fp q.z in
    Mont.equal fp (Mont.mul fp p.x z2z2) (Mont.mul fp q.x z1z1)
    && Mont.equal fp
         (Mont.mul fp (Mont.mul fp p.y q.z) z2z2)
         (Mont.mul fp (Mont.mul fp q.y p.z) z1z1)

let on_curve c p =
  if p.inf then true
  else
    match to_affine c p with
    | None -> true
    | Some (x, y) ->
      on_curve_raw c.fp c.a c.b (Mont.of_bigint c.fp x) (Mont.of_bigint c.fp y)

let c_scalar_mul = Peace_obs.Registry.counter "ec.scalar_mul"

let mul c k p =
  Peace_obs.Registry.Counter.incr c_scalar_mul;
  let k = Bigint.erem k c.n in
  if Bigint.is_zero k || p.inf then infinity c
  else begin
    (* 4-bit fixed-window scalar multiplication *)
    let table = Array.make 16 (infinity c) in
    table.(1) <- p;
    for i = 2 to 15 do
      table.(i) <- add c table.(i - 1) p
    done;
    let nbits = Bigint.num_bits k in
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
      acc := double c !acc;
      acc := double c !acc;
      acc := double c !acc;
      acc := double c !acc;
      let v = window w in
      if v <> 0 then acc := add c !acc table.(v)
    done;
    !acc
  end

let mul_base c k = mul c k c.base_point

let point c ~x ~y =
  let mx = Mont.of_bigint c.fp x and my = Mont.of_bigint c.fp y in
  if not (on_curve_raw c.fp c.a c.b mx my) then
    invalid_arg "Curve.point: not on curve";
  { x = mx; y = my; z = Mont.one c.fp; inf = false }

let make ~name:curve_name ~p ~a ~b ~gx ~gy ~n ~h =
  if not (Bigint.is_odd p) then invalid_arg "Curve.make: even field order";
  let fp = Mont.create p in
  let am = Mont.of_bigint fp a and bm = Mont.of_bigint fp b in
  let a_is_minus3 = Bigint.equal (Bigint.erem a p) (Bigint.erem (Bigint.of_int (-3)) p) in
  let gxm = Mont.of_bigint fp gx and gym = Mont.of_bigint fp gy in
  if not (on_curve_raw fp am bm gxm gym) then
    invalid_arg "Curve.make: base point not on curve";
  let size = (Bigint.num_bits p + 7) / 8 in
  {
    curve_name;
    fp;
    a = am;
    b = bm;
    a_is_minus3;
    base_point = { x = gxm; y = gym; z = Mont.one fp; inf = false };
    n;
    h;
    p;
    size;
  }

let encode c ?(compress = false) pt =
  match to_affine c pt with
  | None -> "\x00"
  | Some (x, y) ->
    let xs = Bigint.to_bytes_be ~width:c.size x in
    if compress then
      let prefix = if Bigint.is_even y then "\x02" else "\x03" in
      prefix ^ xs
    else "\x04" ^ xs ^ Bigint.to_bytes_be ~width:c.size y

let decode c s =
  let n = String.length s in
  if n = 0 then None
  else
    match s.[0] with
    | '\x00' when n = 1 -> Some (infinity c)
    | '\x04' when n = 1 + (2 * c.size) ->
      let x = Bigint.of_bytes_be (String.sub s 1 c.size) in
      let y = Bigint.of_bytes_be (String.sub s (1 + c.size) c.size) in
      (try Some (point c ~x ~y) with Invalid_argument _ -> None)
    | ('\x02' | '\x03') when n = 1 + c.size ->
      let x = Bigint.of_bytes_be (String.sub s 1 c.size) in
      if Bigint.compare x c.p >= 0 then None
      else begin
        (* y² = x³ + ax + b; pick the root with the requested parity *)
        let fp = c.fp in
        let mx = Mont.of_bigint fp x in
        let rhs =
          Mont.add fp
            (Mont.add fp (Mont.mul fp (Mont.sqr fp mx) mx) (Mont.mul fp c.a mx))
            c.b
        in
        match Modular.sqrt (Mont.to_bigint fp rhs) c.p with
        | None -> None
        | Some y0 ->
          let want_even = s.[0] = '\x02' in
          let y = if Bigint.is_even y0 = want_even then y0 else Bigint.sub c.p y0 in
          (try Some (point c ~x ~y) with Invalid_argument _ -> None)
      end
    | _ -> None
