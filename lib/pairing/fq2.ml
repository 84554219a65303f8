open Peace_bigint

type elt = { re : Mont.elt; im : Mont.elt }

let zero fp = { re = Mont.zero fp; im = Mont.zero fp }
let one fp = { re = Mont.one fp; im = Mont.zero fp }
let of_fp re im = { re; im }

let add fp a b = { re = Mont.add fp a.re b.re; im = Mont.add fp a.im b.im }
let sub fp a b = { re = Mont.sub fp a.re b.re; im = Mont.sub fp a.im b.im }
let neg fp a = { re = Mont.neg fp a.re; im = Mont.neg fp a.im }
let conj fp a = { re = a.re; im = Mont.neg fp a.im }

let mul fp a b =
  (* three F_p products: (a+bi)(c+di) = (ac - bd) + ((a+b)(c+d) - ac - bd) i *)
  let ac = Mont.mul fp a.re b.re in
  let bd = Mont.mul fp a.im b.im in
  let cross = Mont.mul fp (Mont.add fp a.re a.im) (Mont.add fp b.re b.im) in
  {
    re = Mont.sub fp ac bd;
    im = Mont.sub fp (Mont.sub fp cross ac) bd;
  }

let sqr fp a =
  (* (a+bi)² = (a-b)(a+b) + 2ab·i *)
  let re = Mont.mul fp (Mont.sub fp a.re a.im) (Mont.add fp a.re a.im) in
  let ab = Mont.mul fp a.re a.im in
  { re; im = Mont.add fp ab ab }

let is_zero fp a = Mont.is_zero fp a.re && Mont.is_zero fp a.im

let inv fp a =
  if is_zero fp a then raise Division_by_zero;
  (* 1/(a+bi) = (a-bi)/(a²+b²); a²+b² ≠ 0 since -1 is a non-residue *)
  let norm = Mont.add fp (Mont.sqr fp a.re) (Mont.sqr fp a.im) in
  let ninv = Mont.inv fp norm in
  { re = Mont.mul fp a.re ninv; im = Mont.neg fp (Mont.mul fp a.im ninv) }

let equal fp a b = Mont.equal fp a.re b.re && Mont.equal fp a.im b.im
let is_one fp a = equal fp a (one fp)

let pow fp base e = Mont.chain ~one:(one fp) ~mul:(mul fp) ~sqr:(sqr fp) base e

let to_bigints fp a = (Mont.to_bigint fp a.re, Mont.to_bigint fp a.im)
let of_bigints fp re im = { re = Mont.of_bigint fp re; im = Mont.of_bigint fp im }

let field_width fp = (Bigint.num_bits (Mont.modulus fp) + 7) / 8

let encode fp a =
  let width = field_width fp in
  let re, im = to_bigints fp a in
  Bigint.to_bytes_be ~width re ^ Bigint.to_bytes_be ~width im

let decode fp s =
  let width = field_width fp in
  if String.length s <> 2 * width then None
  else begin
    let re = Bigint.of_bytes_be (String.sub s 0 width) in
    let im = Bigint.of_bytes_be (String.sub s width width) in
    let p = Mont.modulus fp in
    if Bigint.compare re p >= 0 || Bigint.compare im p >= 0 then None
    else Some (of_bigints fp re im)
  end
