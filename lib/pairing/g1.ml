(* The pairing group on E : y² = x³ + x over F_p: hashing onto the
   q-subgroup and the compressed codec with its subgroup check. The curve
   equation, the group law and the wNAF/Straus scalar multiplication are
   Peace_ec.Ecp's (a = 1, b = 0), shared with ECDSA's curves. *)

open Peace_bigint
open Peace_hash
module Ecp = Peace_ec.Ecp

type point = Ecp.point = Infinity | Affine of { x : Mont.elt; y : Mont.elt }

let infinity = Infinity
let is_infinity = Ecp.is_infinity

let of_affine params ~x ~y =
  match Ecp.of_affine params.Params.ec ~x ~y with
  | Some p -> p
  | None -> invalid_arg "G1.of_affine: not on curve"

let generator params = of_affine params ~x:params.Params.gx ~y:params.Params.gy
let to_affine params p = Ecp.to_affine params.Params.ec p
let coords = function Infinity -> None | Affine { x; y } -> Some (x, y)
let neg params p = Ecp.neg params.Params.ec p
let equal params p q = Ecp.equal params.Params.ec p q

let on_curve params p = Ecp.on_curve params.Params.ec p

let double params p = Ecp.double params.Params.ec p
let add params p q = Ecp.add params.Params.ec p q
let add_batch params p qs = Ecp.add_batch params.Params.ec p qs
let killed_by_q params x y = Ecp.mul_is_infinity params.Params.ec params.Params.q x y

let mul params k p =
  Counters.count_g1_mul ();
  Ecp.mul params.Params.ec k p

let mul2 params a p b q =
  Counters.count_g1_mul ();
  Counters.count_g1_mul ();
  Ecp.mul2 params.Params.ec a p b q

let in_subgroup params = function
  | Infinity -> true
  | Affine { x; y } as p -> on_curve params p && killed_by_q params x y

let field_width params = (Bigint.num_bits params.Params.p + 7) / 8

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
      match Ecp.lift params.Params.ec x with
      | Some y when not (Mont.is_zero fp y) ->
        let cleared = Ecp.mul params.Params.ec params.Params.h (Affine { x; y }) in
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
        match Ecp.lift params.Params.ec x with
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
