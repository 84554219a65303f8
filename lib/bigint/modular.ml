let check_modulus m =
  if Bigint.sign m <= 0 then invalid_arg "Modular: modulus must be positive"

let add a b m =
  check_modulus m;
  Bigint.erem (Bigint.add a b) m

let sub a b m =
  check_modulus m;
  Bigint.erem (Bigint.sub a b) m

let mul a b m =
  check_modulus m;
  Bigint.erem (Bigint.mul a b) m

let powm_generic b e m =
  (* square-and-multiply with full reduction; used for even moduli *)
  let b = ref (Bigint.erem b m) in
  let result = ref Bigint.one in
  let nbits = Bigint.num_bits e in
  for i = 0 to nbits - 1 do
    if Bigint.testbit e i then result := mul !result !b m;
    b := mul !b !b m
  done;
  Bigint.erem !result m

let powm b e m =
  check_modulus m;
  if Bigint.sign e < 0 then invalid_arg "Modular.powm: negative exponent";
  if Bigint.is_one m then Bigint.zero
  else if Bigint.is_odd m && Bigint.compare m Bigint.two > 0 then begin
    let ctx = Mont.create m in
    Mont.to_bigint ctx (Mont.pow ctx (Mont.of_bigint ctx b) e)
  end
  else powm_generic b e m

let invert a m =
  check_modulus m;
  let a = Bigint.erem a m in
  if Bigint.is_zero a then raise Division_by_zero;
  let rec egcd a b =
    if Bigint.is_zero b then (a, Bigint.one, Bigint.zero)
    else begin
      let q, r = Bigint.divmod a b in
      let g, s, t = egcd b r in
      (g, t, Bigint.sub s (Bigint.mul q t))
    end
  in
  let g, s, _ = egcd a m in
  if not (Bigint.is_one g) then raise Division_by_zero;
  Bigint.erem s m
