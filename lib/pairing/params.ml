open Peace_bigint
module Ecp = Peace_ec.Ecp

type t = {
  name : string;
  p : Bigint.t;
  q : Bigint.t;
  h : Bigint.t;
  fp : Mont.ctx;
  ec : Ecp.t;
  gx : Bigint.t;
  gy : Bigint.t;
}

(* E : y² = x³ + x over F_p *)
let curve p =
  let fp = Mont.create p in
  (fp, Ecp.make fp ~a:Bigint.one ~b:Bigint.zero)

let make ~name ~p ~q ~h ~gx ~gy =
  let fp, ec = curve p in
  { name; p; q; h; fp; ec; gx; gy }

let of_hex = Bigint.of_string

(* Pre-generated and validated offline; `validate` re-checks at runtime. *)
let tiny =
  lazy
    (make ~name:"tiny-a80"
       ~p:(of_hex "0xb9378a70683c55f67adc1f")
       ~q:(of_hex "0xa4a325b94035a1bea619")
       ~h:(Bigint.of_int 288)
       ~gx:(of_hex "0x6637d2ff07eb607029f095")
       ~gy:(of_hex "0x9aaa4ca6e4078ba9b27f49"))

(* Matches the PAPER's group-element/scalar sizes (171-bit G1, 170-bit Zp)
   so the E1 size table can measure the 1192-bit claim directly. NOT a
   security-matched preset: DL in F_p² at 350 bits is weak. *)
let paper_size =
  lazy
    (make ~name:"paper-size-a170"
       ~p:(of_hex "0x5dd9941be37a6cac8549984b639edf275ea0ab549a93")
       ~q:(of_hex "0x29b608eff352daf757aeee5a652a2a4a62f213420bd")
       ~h:(Bigint.of_int 36)
       ~gx:(of_hex "0x528e31fbd4c09e4408c16d4acdbed9cd16ad44dfbba3")
       ~gy:(of_hex "0x2d8da37bf9a6295ac339b824e24398cf91915ca51d75"))

let light =
  lazy
    (make ~name:"light-a160"
       ~p:
         (of_hex
            "0x9fab9c442de187b1248d977514e0a08232aceea7c4a07d2419b9f701b8cf633b497c0d0bb9b4c059dc477ec49165be6eb3c912345352ae0a944ea4bdec2ced73")
       ~q:(of_hex "0xcb93e962efb01f4f6335c34d053b52e012c1f553")
       ~h:
         (of_hex
            "0xc8c944e914886cace393860495eb67517be1ed790d296c914153a8c81be7185e11e85424227eba75ce5f1a3c")
       ~gx:
         (of_hex
            "0xb6824e2bdea9547d668f753bb255c51f0de3702b826b88e923d2bf2259f1d043d10d7a92016c8c8ef8f29544c1bf6fbb5b7d7d69a6e74a8078aa6560cedeaf0")
       ~gy:
         (of_hex
            "0x11a98683efd54b5af44aabe9ed3bfb0b6e1fdc8b2d01a56ca4fd4c34de819c4a130126fa0680efb37b3cb46e5d34d5e667d311386ebe8e659e7916448f14c5d"))

(* Straight-line affine arithmetic on y² = x³ + x, used only during
   parameter generation and validation (cold path). *)
let affine_add p pt1 pt2 =
  match (pt1, pt2) with
  | None, q -> q
  | q, None -> q
  | Some (x1, y1), Some (x2, y2) ->
    if Bigint.equal x1 x2 && Bigint.is_zero (Modular.add y1 y2 p) then None
    else begin
      let lambda =
        if Bigint.equal x1 x2 then
          (* (3x² + 1) / 2y *)
          Modular.mul
            (Modular.add (Modular.mul (Bigint.of_int 3) (Modular.mul x1 x1 p) p)
               Bigint.one p)
            (Modular.invert (Modular.add y1 y1 p) p)
            p
        else
          Modular.mul (Modular.sub y2 y1 p)
            (Modular.invert (Modular.sub x2 x1 p) p)
            p
      in
      let x3 = Modular.sub (Modular.mul lambda lambda p) (Modular.add x1 x2 p) p in
      let y3 = Modular.sub (Modular.mul lambda (Modular.sub x1 x3 p) p) y1 p in
      Some (x3, y3)
    end

let affine_mul p k pt =
  let result = ref None in
  let base = ref pt in
  for i = 0 to Bigint.num_bits k - 1 do
    if Bigint.testbit k i then result := affine_add p !result !base;
    base := affine_add p !base !base
  done;
  !result

let validate t =
  let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e in
  let check cond msg = if cond then Ok () else Error msg in
  let* () = check (Prime.is_probable_prime t.p) "p is not prime" in
  let* () = check (Prime.is_probable_prime t.q) "q is not prime" in
  let* () =
    check
      (Bigint.to_int (Bigint.erem t.p (Bigint.of_int 4)) = 3)
      "p is not 3 mod 4"
  in
  let* () =
    check (Bigint.equal (Bigint.succ t.p) (Bigint.mul t.q t.h)) "q*h <> p+1"
  in
  let* () =
    check (Ecp.of_affine t.ec ~x:t.gx ~y:t.gy <> None) "generator not on curve"
  in
  let* () =
    check (affine_mul t.p t.q (Some (t.gx, t.gy)) = None) "generator order <> q"
  in
  check (affine_mul t.p Bigint.one (Some (t.gx, t.gy)) <> None) "generator is O"

let generate rng ~qbits ~pbits ~name =
  if qbits < 8 || pbits < qbits + 3 then invalid_arg "Params.generate: bad sizes";
  let rec attempt () =
    let q = Prime.random_prime rng ~bits:qbits in
    let hbits = pbits - qbits in
    (* scan h ≡ 0 (mod 4) near a random start until p = q*h - 1 is prime *)
    let start =
      let r = Bigint.random_bits rng hbits in
      let r = Bigint.logor r (Bigint.shift_left Bigint.one (hbits - 1)) in
      Bigint.sub r (Bigint.erem r (Bigint.of_int 4))
    in
    let rec scan h tries =
      if tries > 4096 then None
      else begin
        let p = Bigint.pred (Bigint.mul q h) in
        if Bigint.num_bits p = pbits && Prime.is_probable_prime p then Some (q, h, p)
        else scan (Bigint.add h (Bigint.of_int 4)) (tries + 1)
      end
    in
    match scan start 0 with
    | None -> attempt ()
    | Some (q, h, p) ->
      (* find a generator: lift x to a curve point, clear the cofactor *)
      let fp, ec = curve p in
      let rec find_generator x =
        match Ecp.lift ec (Mont.of_bigint fp x) with
        | Some y when not (Mont.is_zero fp y) -> begin
          match affine_mul p h (Some (x, Mont.to_bigint fp y)) with
          | Some (gx, gy) when affine_mul p q (Some (gx, gy)) = None ->
            make ~name ~p ~q ~h ~gx ~gy
          | _ -> find_generator (Bigint.succ x)
        end
        | _ -> find_generator (Bigint.succ x)
      in
      find_generator Bigint.two
  in
  attempt ()

let group_element_bytes t = 1 + ((Bigint.num_bits t.p + 7) / 8)

let to_text t =
  String.concat "\n"
    [
      "peace-params-v1";
      t.name;
      Bigint.to_hex t.p;
      Bigint.to_hex t.q;
      Bigint.to_hex t.h;
      Bigint.to_hex t.gx;
      Bigint.to_hex t.gy;
    ]
  ^ "\n"

let of_text text =
  match String.split_on_char '\n' (String.trim text) with
  | [ "peace-params-v1"; name; p; q; h; gx; gy ] -> begin
    match
      make ~name ~p:(Bigint.of_hex p) ~q:(Bigint.of_hex q) ~h:(Bigint.of_hex h)
        ~gx:(Bigint.of_hex gx) ~gy:(Bigint.of_hex gy)
    with
    | params -> begin
      match validate params with
      | Ok () -> Ok params
      | Error reason -> Error reason
    end
    | exception Invalid_argument reason -> Error reason
  end
  | _ -> Error "unrecognised parameter file"
