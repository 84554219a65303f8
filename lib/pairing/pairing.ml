(* Modified Tate pairing on the type-A curve: Miller loops with
   denominator elimination.

   The second argument is mapped through the distortion map
   φ(x, y) = (−x, iy), so all line evaluations land in F_p² with the real
   part in F_p and the imaginary part equal to y_Q. Vertical lines evaluate
   inside F_p and are erased by the (p−1) factor of the final
   exponentiation, so they are skipped. *)

open Peace_bigint
module Ecp = Peace_ec.Ecp

module Gt = struct
  type elt = Fq2.elt

  let one params = Fq2.one params.Params.fp
  let mul params a b = Fq2.mul params.Params.fp a b

  (* an element of GT has norm 1: its inverse is its conjugate *)
  let inv params a = Fq2.conj params.Params.fp a
  let equal params a b = Fq2.equal params.Params.fp a b
  let is_one params a = Fq2.is_one params.Params.fp a

  let pow params a e =
    Counters.count_gt_exp ();
    let fp = params.Params.fp in
    if Bigint.sign e >= 0 then Fq2.pow fp a e
    else Fq2.conj fp (Fq2.pow fp a (Bigint.neg e))

  let encode params a = Fq2.encode params.Params.fp a
  let decode params s = Fq2.decode params.Params.fp s

  let in_subgroup params a =
    Fq2.is_one params.Params.fp (Fq2.pow params.Params.fp a params.Params.q)
end

(* line through (x_t, y_t) with slope λ, evaluated at φ(Q) = (−x_q, i·y_q):
   value = λ·(x_q + x_t) − y_t  +  y_q · i *)
let line_value fp ~lambda ~xt ~yt ~xq ~yq =
  Fq2.of_fp (Mont.sub fp (Mont.mul fp lambda (Mont.add fp xq xt)) yt) yq

let rec tate_affine params p q =
  Counters.count_pairing ();
  let fp = params.Params.fp in
  match (G1.coords p, G1.coords q) with
  | None, _ | _, None -> Fq2.one fp
  | Some (px, py), Some (xq, yq) ->
    let f = ref (Fq2.one fp) in
    (* T = (tx, ty), kept affine; [t_inf] marks the point at infinity *)
    let tx = ref px and ty = ref py and t_inf = ref false in
    let order = params.Params.q in
    for i = Bigint.num_bits order - 2 downto 0 do
      f := Fq2.sqr fp !f;
      if not !t_inf then begin
        if Mont.is_zero fp !ty then t_inf := true (* vertical: skip factor *)
        else begin
          (* doubling step: λ = (3x² + 1) / 2y *)
          let xx = Mont.sqr fp !tx in
          let num =
            Mont.add fp (Mont.add fp (Mont.add fp xx xx) xx) (Mont.one fp)
          in
          let lambda = Mont.mul fp num (Mont.inv fp (Mont.add fp !ty !ty)) in
          f := Fq2.mul fp !f (line_value fp ~lambda ~xt:!tx ~yt:!ty ~xq ~yq);
          let x3 = Mont.sub fp (Mont.sqr fp lambda) (Mont.add fp !tx !tx) in
          let y3 = Mont.sub fp (Mont.mul fp lambda (Mont.sub fp !tx x3)) !ty in
          tx := x3;
          ty := y3
        end
      end;
      if Bigint.testbit order i then begin
        if !t_inf then begin
          (* O + P = P; the "line" is vertical through P: skip factor *)
          tx := px;
          ty := py;
          t_inf := false
        end
        else if Mont.equal fp !tx px then begin
          if Mont.equal fp !ty py then begin
            (* T = P: tangent line (cannot happen mid-loop for ord(P) = q,
               but handle it for robustness) *)
            let xx = Mont.sqr fp !tx in
            let num =
              Mont.add fp (Mont.add fp (Mont.add fp xx xx) xx) (Mont.one fp)
            in
            let lambda = Mont.mul fp num (Mont.inv fp (Mont.add fp !ty !ty)) in
            f := Fq2.mul fp !f (line_value fp ~lambda ~xt:!tx ~yt:!ty ~xq ~yq);
            let x3 = Mont.sub fp (Mont.sqr fp lambda) (Mont.add fp !tx !tx) in
            let y3 =
              Mont.sub fp (Mont.mul fp lambda (Mont.sub fp !tx x3)) !ty
            in
            tx := x3;
            ty := y3
          end
          else
            (* T = −P: vertical line, T + P = O; skip factor *)
            t_inf := true
        end
        else begin
          (* addition step: λ = (y_T − y_P) / (x_T − x_P) *)
          let lambda =
            Mont.mul fp (Mont.sub fp !ty py) (Mont.inv fp (Mont.sub fp !tx px))
          in
          f := Fq2.mul fp !f (line_value fp ~lambda ~xt:px ~yt:py ~xq ~yq);
          let x3 =
            Mont.sub fp (Mont.sub fp (Mont.sqr fp lambda) !tx) px
          in
          let y3 = Mont.sub fp (Mont.mul fp lambda (Mont.sub fp px x3)) py in
          tx := x3;
          ty := y3
        end
      end
    done;
    final_exponentiation params !f

and final_exponentiation params z =
  (* (p² − 1)/q = (p − 1)·h; z^(p−1) = conj(z)/z, then the cofactor power *)
  let fp = params.Params.fp in
  if Fq2.is_zero fp z then Fq2.one fp
  else begin
    let easy = Fq2.mul fp (Fq2.conj fp z) (Fq2.inv fp z) in
    Fq2.pow fp easy params.Params.h
  end


(* --- the Miller loop --- *)

(* The Miller loop of P = (px, py) walks the bits of q below the top one:
   [bit ()], a doubling step, and an addition step where the bit is set.
   T starts at P in Jacobian coordinates and takes G1's own steps (Ecp's,
   with their cases for Y = 0, O + P and T = ±P). Step j's line, of slope
   N / Z₃ through −(X₃/Z₃², Y₃/Z₃³), goes to [doubling j n x3 y3 z3 zz3]
   or, for an addition step, whose chord or tangent also passes through P,
   to [adding j n x3 y3 z3 zz3], with zz3 = Z₃², the square the next step
   reads. A vertical step draws no line: its F_p value is erased by the
   final exponentiation. *)
let walk params px py ~bit ~doubling ~adding =
  let ec = params.Params.ec and order = params.Params.q in
  let t = ref (Ecp.jac_of_affine params.Params.fp px py) in
  let j = ref 0 in
  let on_double n x3 y3 z3 zz3 = doubling !j n x3 y3 z3 zz3
  and on_add n x3 y3 z3 zz3 = adding !j n x3 y3 z3 zz3 in
  for i = Bigint.num_bits order - 2 downto 0 do
    bit ();
    t := Ecp.jac_double ec on_double !t;
    incr j;
    if Bigint.testbit order i then begin
      t := Ecp.jac_add_affine ec on_add !t px py;
      incr j
    end
  done

(* At φ(Q) = (−x_Q, i·y_Q) the line of slope λ through (x, y) is
   (λ·(x_Q + x) − y) + y_Q·i, and any F_p factor is erased by the final
   exponentiation. A doubling's line goes through −(x₃, y₃); with
   λ = N / Z₃, x₃ = X₃/Z₃², y₃ = Y₃/Z₃³ and scaled by Z₃³ it is
   (N·(Z₃²·x_Q + X₃) + Y₃) + Z₃³·y_Q·i. An addition's goes through P;
   scaled by Z₃ it is (N·(x_Q + x_P) − Z₃·y_P) + Z₃·y_Q·i, one square and
   one product cheaper. *)
let tate params p q =
  Counters.count_pairing ();
  let fp = params.Params.fp in
  match (G1.coords p, G1.coords q) with
  | None, _ | _, None -> Fq2.one fp
  | Some (px, py), Some (xq, yq) ->
    let f = ref (Fq2.one fp) in
    let times re im = f := Fq2.mul fp !f (Fq2.of_fp re im) in
    let xq_px = Mont.add fp xq px in
    walk params px py
      ~bit:(fun () -> f := Fq2.sqr fp !f)
      ~doubling:(fun _ n x3 y3 z3 zz ->
        times
          (Mont.add fp (Mont.mul fp n (Mont.add fp (Mont.mul fp zz xq) x3)) y3)
          (Mont.mul fp (Mont.mul fp zz z3) yq))
      ~adding:(fun _ n _ _ z3 _ ->
        times (Mont.sub fp (Mont.mul fp n xq_px) (Mont.mul fp z3 py)) (Mont.mul fp z3 yq));
    final_exponentiation params !f

(* --- Miller-line tables for a first argument that repeats --- *)

(* Slot j holds the λ and c = λ·x₃ + y₃ of step j's line, whose value at
   φ(Q) is (λ·x_Q + c) + y_Q·i: the line the affine loop draws. *)
type lines = {
  slope : Mont.elt array;
  offset : Mont.elt array;
  live : Bytes.t;  (* '\001' where step j draws a line *)
}

(* Slot j first holds N·Z₃² and N·X₃ + Y₃, and one batched inversion of
   every Z₃³ turns them into λ and c. *)
let lines_of params p =
  let fp = params.Params.fp in
  match G1.coords p with
  | None -> { slope = [||]; offset = [||]; live = Bytes.empty }
  | Some (px, py) ->
    let order = params.Params.q in
    let steps = ref 0 in
    for i = Bigint.num_bits order - 2 downto 0 do
      steps := !steps + if Bigint.testbit order i then 2 else 1
    done;
    let n = !steps and one = Mont.one fp in
    let slope = Array.make n one and offset = Array.make n one in
    let denom = Array.make n one in
    let live = Bytes.make n '\000' in
    let store j numerator x3 y3 z3 zz =
      slope.(j) <- Mont.mul fp numerator zz;
      offset.(j) <- Mont.add fp (Mont.mul fp numerator x3) y3;
      denom.(j) <- Mont.mul fp zz z3;
      Bytes.set live j '\001'
    in
    walk params px py ~bit:ignore ~doubling:store ~adding:store;
    (* dead slots invert their placeholder 1 and are never read *)
    let inverse = Mont.inv_all fp denom in
    for j = 0 to n - 1 do
      if Bytes.get live j = '\001' then begin
        slope.(j) <- Mont.mul fp slope.(j) inverse.(j);
        offset.(j) <- Mont.mul fp offset.(j) inverse.(j)
      end
    done;
    { slope; offset; live }

(* The Miller value ∏ f_{q,Pᵢ}(φ(Qᵢ)) from the tables of the Pᵢ, before
   the final exponentiation; [None] when no pair draws a line, so the
   product pairs to 1. The tables share the step layout of q, so one pass
   squares f once per bit and multiplies in every pair's line at each
   step. *)
let miller_lines params pairs =
  let fp = params.Params.fp in
  let live =
    Array.of_list
      (List.filter_map
         (fun (lines, q) ->
           Counters.count_pairing ();
           match G1.coords q with
           | Some (xq, yq) when Bytes.length lines.live > 0 -> Some (lines, xq, yq)
           | Some _ | None -> None)
         pairs)
  in
  if Array.length live = 0 then None
  else begin
    let f = ref (Fq2.one fp) in
    let step j =
      for i = 0 to Array.length live - 1 do
        let lines, xq, yq = live.(i) in
        if Bytes.get lines.live j = '\001' then begin
          let re = Mont.add fp (Mont.mul fp lines.slope.(j) xq) lines.offset.(j) in
          f := Fq2.mul fp !f (Fq2.of_fp re yq)
        end
      done
    in
    let order = params.Params.q in
    let j = ref 0 in
    for bit = Bigint.num_bits order - 2 downto 0 do
      f := Fq2.sqr fp !f;
      step !j;
      incr j;
      if Bigint.testbit order bit then begin
        step !j;
        incr j
      end
    done;
    Some !f
  end

let tate_lines params pairs =
  match miller_lines params pairs with
  | None -> Fq2.one params.Params.fp
  | Some f -> final_exponentiation params f

(* ê(P, Q) = (conj f / f)^h for the Miller value f, and conj commutes with
   powers, so with g = f^h the pairing equals [target] exactly when
   conj g = target·g: one F_p² product where [final_exponentiation]
   inverts f. f = 0 pairs to 1, as there. *)
let lines_equal params lines q target =
  let fp = params.Params.fp in
  match miller_lines params [ (lines, q) ] with
  | Some f when not (Fq2.is_zero fp f) ->
    let g = Fq2.pow fp f params.Params.h in
    Fq2.equal fp (Fq2.conj fp g) (Fq2.mul fp target g)
  | Some _ | None -> Gt.is_one params target
