(* Short-Weierstrass curves y² = x³ + ax + b over F_p: domain parameters
   and the uncompressed SEC 1 codec. The equation, the group law and the
   scalar multiplication are Ecp's. Field elements live in Montgomery form
   throughout. *)

open Peace_bigint

type point = Ecp.point = Infinity | Affine of { x : Mont.elt; y : Mont.elt }

type t = {
  curve_name : string;
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
let to_affine c p = Ecp.to_affine c.ec p
let neg c p = Ecp.neg c.ec p
let add c p q = Ecp.add c.ec p q
let double c p = Ecp.double c.ec p
let equal c p q = Ecp.equal c.ec p q
let on_curve c p = Ecp.on_curve c.ec p

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
  match Ecp.of_affine c.ec ~x ~y with
  | Some pt -> pt
  | None -> invalid_arg "Curve.point: not on curve"

let make ~name:curve_name ~p ~a ~b ~gx ~gy ~n =
  if not (Bigint.is_odd p) then invalid_arg "Curve.make: even field order";
  let ec = Ecp.make (Mont.create p) ~a ~b in
  match Ecp.of_affine ec ~x:gx ~y:gy with
  | None -> invalid_arg "Curve.make: base point not on curve"
  | Some base_point ->
    { curve_name; ec; base_point; n; p; size = (Bigint.num_bits p + 7) / 8 }

let encode c pt =
  match to_affine c pt with
  | None -> "\x00"
  | Some (x, y) ->
    "\x04" ^ Bigint.to_bytes_be ~width:c.size x ^ Bigint.to_bytes_be ~width:c.size y

let decode c s =
  if s = "\x00" then Some Infinity
  else if String.length s <> 1 + (2 * c.size) || s.[0] <> '\x04' then None
  else begin
    let x = Bigint.of_bytes_be (String.sub s 1 c.size) in
    let y = Bigint.of_bytes_be (String.sub s (1 + c.size) c.size) in
    (* canonical coordinates only, so one point has one encoding *)
    if Bigint.compare x c.p >= 0 || Bigint.compare y c.p >= 0 then None
    else Ecp.of_affine c.ec ~x ~y
  end
