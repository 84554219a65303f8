open Peace_bigint

let h = Bigint.of_string

let secp160r1 =
  lazy
    (Curve.make ~name:"secp160r1"
       ~p:(h "0xffffffffffffffffffffffffffffffff7fffffff")
       ~a:(h "0xffffffffffffffffffffffffffffffff7ffffffc")
       ~b:(h "0x1c97befc54bd7a8b65acf89f81d4d4adc565fa45")
       ~gx:(h "0x4a96b5688ef573284664698968c38bb913cbfc82")
       ~gy:(h "0x23a628553168947d59dcc912042351377ac5fb32")
       ~n:(h "0x0100000000000000000001f4c8f927aed3ca752257"))

let secp256r1 =
  lazy
    (Curve.make ~name:"secp256r1"
       ~p:(h "0xffffffff00000001000000000000000000000000ffffffffffffffffffffffff")
       ~a:(h "0xffffffff00000001000000000000000000000000fffffffffffffffffffffffc")
       ~b:(h "0x5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b")
       ~gx:(h "0x6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296")
       ~gy:(h "0x4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5")
       ~n:(h "0xffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551"))
