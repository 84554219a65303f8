(* Short-Weierstrass curves y² = x³ + ax + b over F_p: domain parameters,
   the equation check and the SEC 1 codec. The group law and the scalar
   multiplication are Ecp's. Field elements live in Montgomery form
   throughout. *)

open Peace_bigint

type point = Ecp.point = Infinity | Affine of { x : Mont.elt; y : Mont.elt }

type t = {
  curve_name : string;
  fp : Mont.ctx;
  a : Mont.elt;
  b : Mont.elt;
  ec : Ecp.t;
  base_point : point;
  n : Bigint.t;
  p : Bigint.t;
  size : int; (* bytes per field element *)
}

let name c = c.curve_name
let order c = c.n
let base c = c.base_point
let byte_size c = c.size
let infinity _ = Infinity
let is_infinity = Ecp.is_infinity

(* x³ + ax + b in Montgomery form *)
let rhs fp a b x =
  Mont.add fp (Mont.add fp (Mont.mul fp (Mont.sqr fp x) x) (Mont.mul fp a x)) b

let on_curve_raw fp a b x y = Mont.equal fp (Mont.sqr fp y) (rhs fp a b x)

let to_affine c p = Ecp.to_affine c.ec p
let neg c p = Ecp.neg c.ec p
let add c p q = Ecp.add c.ec p q
let double c p = Ecp.double c.ec p
let equal c p q = Ecp.equal c.ec p q

let on_curve c = function
  | Infinity -> true
  | Affine { x; y } -> on_curve_raw c.fp c.a c.b x y

let c_scalar_mul = Peace_obs.Registry.counter "ec.scalar_mul"

let mul c k p =
  Peace_obs.Registry.Counter.incr c_scalar_mul;
  Ecp.mul c.ec (Bigint.erem k c.n) p

let mul2 c j p k q =
  Peace_obs.Registry.Counter.incr c_scalar_mul;
  Peace_obs.Registry.Counter.incr c_scalar_mul;
  Ecp.mul2 c.ec (Bigint.erem j c.n) p (Bigint.erem k c.n) q

let mul_base c k = mul c k c.base_point

let point c ~x ~y =
  let mx = Mont.of_bigint c.fp x and my = Mont.of_bigint c.fp y in
  if not (on_curve_raw c.fp c.a c.b mx my) then
    invalid_arg "Curve.point: not on curve";
  Affine { x = mx; y = my }

let make ~name:curve_name ~p ~a ~b ~gx ~gy ~n =
  if not (Bigint.is_odd p) then invalid_arg "Curve.make: even field order";
  let fp = Mont.create p in
  let ec = Ecp.make fp ~a in
  let am = Mont.of_bigint fp a and bm = Mont.of_bigint fp b in
  let gxm = Mont.of_bigint fp gx and gym = Mont.of_bigint fp gy in
  if not (on_curve_raw fp am bm gxm gym) then
    invalid_arg "Curve.make: base point not on curve";
  let size = (Bigint.num_bits p + 7) / 8 in
  {
    curve_name;
    fp;
    a = am;
    b = bm;
    ec;
    base_point = Affine { x = gxm; y = gym };
    n;
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
    | '\x00' when n = 1 -> Some Infinity
    | '\x04' when n = 1 + (2 * c.size) ->
      let x = Bigint.of_bytes_be (String.sub s 1 c.size) in
      let y = Bigint.of_bytes_be (String.sub s (1 + c.size) c.size) in
      (* canonical coordinates only, so one point has one encoding *)
      if Bigint.compare x c.p >= 0 || Bigint.compare y c.p >= 0 then None
      else (try Some (point c ~x ~y) with Invalid_argument _ -> None)
    | ('\x02' | '\x03') when n = 1 + c.size ->
      let x = Bigint.of_bytes_be (String.sub s 1 c.size) in
      if Bigint.compare x c.p >= 0 then None
      else begin
        (* y² = x³ + ax + b; pick the root with the requested parity *)
        let y2 = rhs c.fp c.a c.b (Mont.of_bigint c.fp x) in
        match Modular.sqrt (Mont.to_bigint c.fp y2) c.p with
        | None -> None
        | Some y0 ->
          let want_even = s.[0] = '\x02' in
          let y = if Bigint.is_even y0 = want_even then y0 else Bigint.sub c.p y0 in
          (try Some (point c ~x ~y) with Invalid_argument _ -> None)
      end
    | _ -> None
