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

let powm b e m =
  check_modulus m;
  if Bigint.sign e < 0 then invalid_arg "Modular.powm: negative exponent";
  if Bigint.is_one m then Bigint.zero
  else if Bigint.is_even m then invalid_arg "Modular.powm: even modulus"
  else begin
    let ctx = Mont.create m in
    Mont.to_bigint ctx (Mont.pow ctx (Mont.of_bigint ctx b) e)
  end

let invert = Bigint.invert
