(* Modified Tate pairing on the type-A curve, affine Miller loop with
   denominator elimination.

   The second argument is mapped through the distortion map
   φ(x, y) = (−x, iy), so all line evaluations land in F_p² with the real
   part in F_p and the imaginary part equal to y_Q. Vertical lines evaluate
   inside F_p and are erased by the (p−1) factor of the final
   exponentiation, so they are skipped. *)

open Peace_bigint

module Gt = struct
  type elt = Fq2.elt

  let one params = Fq2.one params.Params.fp
  let mul params a b = Fq2.mul params.Params.fp a b
  let inv params a = Fq2.inv params.Params.fp a
  let equal params a b = Fq2.equal params.Params.fp a b
  let is_one params a = Fq2.is_one params.Params.fp a

  let pow params a e =
    Counters.count_gt_exp ();
    let fp = params.Params.fp in
    if Bigint.sign e >= 0 then Fq2.pow fp a e
    else Fq2.inv fp (Fq2.pow fp a (Bigint.neg e))

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


(* Inversion-free Miller loop: T is tracked in Jacobian coordinates and
   line values are scaled by F_p factors, which the (p−1) part of the final
   exponentiation erases. ~8x faster than the affine reference at 512-bit
   parameters (ablation A5). *)
let tate params p q =
  Counters.count_pairing ();
  let fp = params.Params.fp in
  match (G1.coords p, G1.coords q) with
  | None, _ | _, None -> Fq2.one fp
  | Some (px, py), Some (xq, yq) ->
    let f = ref (Fq2.one fp) in
    (* T = (x, y, z) Jacobian; [t_inf] encodes the point at infinity *)
    let tx = ref px and ty = ref py and tz = ref (Mont.one fp) in
    let t_inf = ref false in
    (* shared by the squaring phase and the degenerate T = P addition *)
    let double_with_line () =
      if Mont.is_zero fp !ty then t_inf := true (* vertical: skip factor *)
      else begin
        (* doubling: M = 3X² + Z⁴ (a = 1), S = 4XY², Z3 = 2YZ *)
        let xx = Mont.sqr fp !tx in
        let yy = Mont.sqr fp !ty in
        let zz = Mont.sqr fp !tz in
        let m =
          Mont.add fp (Mont.add fp (Mont.add fp xx xx) xx) (Mont.sqr fp zz)
        in
        let s =
          let t = Mont.mul fp !tx yy in
          Mont.add fp (Mont.add fp t t) (Mont.add fp t t)
        in
        let z3 =
          let t = Mont.mul fp !ty !tz in
          Mont.add fp t t
        in
        (* line at φ(Q) = (−xq, i·yq), scaled by Z3·Z1²:
           re = M·(Z1²·xq + X1) − 2Y1², im = Z3·Z1²·yq *)
        let two_yy = Mont.add fp yy yy in
        let re =
          Mont.sub fp
            (Mont.mul fp m (Mont.add fp (Mont.mul fp zz xq) !tx))
            two_yy
        in
        let im = Mont.mul fp (Mont.mul fp z3 zz) yq in
        f := Fq2.mul fp !f (Fq2.of_fp re im);
        let x3 = Mont.sub fp (Mont.sqr fp m) (Mont.add fp s s) in
        let eight_y4 =
          let y4 = Mont.sqr fp yy in
          let t2 = Mont.add fp y4 y4 in
          let t4 = Mont.add fp t2 t2 in
          Mont.add fp t4 t4
        in
        let y3 = Mont.sub fp (Mont.mul fp m (Mont.sub fp s x3)) eight_y4 in
        tx := x3;
        ty := y3;
        tz := z3
      end
    in
    let order = params.Params.q in
    for i = Bigint.num_bits order - 2 downto 0 do
      f := Fq2.sqr fp !f;
      if not !t_inf then double_with_line ();
      if Bigint.testbit order i then begin
        if !t_inf then begin
          (* O + P = P; vertical line: skip factor *)
          tx := px;
          ty := py;
          tz := Mont.one fp;
          t_inf := false
        end
        else begin
          (* mixed addition with P = (px, py) affine *)
          let zz = Mont.sqr fp !tz in
          let u2 = Mont.mul fp px zz in
          let s2 = Mont.mul fp (Mont.mul fp py !tz) zz in
          if Mont.equal fp u2 !tx then begin
            if Mont.equal fp s2 !ty then
              (* T = P (impossible mid-loop for ord(P) = q, handled for
                 robustness on exotic inputs): adding P equals doubling *)
              double_with_line ()
            else
              (* T = −P: vertical, T + P = O; skip factor *)
              t_inf := true
          end
          else begin
            let h = Mont.sub fp u2 !tx in
            let r = Mont.sub fp s2 !ty in
            let hh = Mont.sqr fp h in
            let hhh = Mont.mul fp h hh in
            let z3 = Mont.mul fp !tz h in
            (* line through P scaled by Z3:
               re = R·(xq + px) − Z3·py, im = Z3·yq *)
            let re =
              Mont.sub fp
                (Mont.mul fp r (Mont.add fp xq px))
                (Mont.mul fp z3 py)
            in
            let im = Mont.mul fp z3 yq in
            f := Fq2.mul fp !f (Fq2.of_fp re im);
            let v = Mont.mul fp !tx hh in
            let x3 =
              Mont.sub fp (Mont.sub fp (Mont.sqr fp r) hhh) (Mont.add fp v v)
            in
            let y3 =
              Mont.sub fp (Mont.mul fp r (Mont.sub fp v x3))
                (Mont.mul fp !ty hhh)
            in
            tx := x3;
            ty := y3;
            tz := z3
          end
        end
      end
    done;
    final_exponentiation params !f


(* --- Miller-line tables for a first argument that repeats --- *)

(* The Miller loop of P walks the bits of q below the top one: a doubling
   step at every bit, an addition step where the bit is set. A step draws
   either no line (a vertical one, whose F_p value the final exponentiation
   erases) or a tangent or chord of slope λ that meets the curve again at
   −(x₃, y₃), for the point (x₃, y₃) the step produces. At
   φ(Q) = (−x_Q, i·y_Q) that line is (λ·x_Q + c) + y_Q·i with
   c = λ·x₃ + y₃: the line the affine loop draws. Slot j holds step j's λ
   and c. *)
type lines = {
  slope : Mont.elt array;
  offset : Mont.elt array;
  live : Bytes.t;  (* '\001' where step j draws a line *)
}

(* The trajectory runs in Jacobian coordinates, as in [tate]. A step with
   numerator N (M when doubling, R when adding) that produces
   (X₃, Y₃, Z₃) has λ = N / Z₃ and, with x₃ = X₃/Z₃², y₃ = Y₃/Z₃³,
   c = (N·X₃ + Y₃) / Z₃³. So slot j first holds N·Z₃² and N·X₃ + Y₃, and
   one batched inversion of every Z₃³ turns them into λ and c. *)
let lines_of params p =
  let fp = params.Params.fp in
  let order = params.Params.q in
  let nbits = Bigint.num_bits order in
  match G1.coords p with
  | None -> { slope = [||]; offset = [||]; live = Bytes.empty }
  | Some (px, py) ->
    let steps = ref 0 in
    for i = nbits - 2 downto 0 do
      steps := !steps + if Bigint.testbit order i then 2 else 1
    done;
    let n = !steps and one = Mont.one fp in
    let slope = Array.make n one and offset = Array.make n one in
    let denom = Array.make n one in
    let live = Bytes.make n '\000' in
    let tx = ref px and ty = ref py and tz = ref one and t_inf = ref false in
    let j = ref 0 in
    let record numerator x3 y3 z3 =
      let zz = Mont.sqr fp z3 in
      slope.(!j) <- Mont.mul fp numerator zz;
      offset.(!j) <- Mont.add fp (Mont.mul fp numerator x3) y3;
      denom.(!j) <- Mont.mul fp zz z3;
      Bytes.set live !j '\001';
      tx := x3;
      ty := y3;
      tz := z3
    in
    let double () =
      if Mont.is_zero fp !ty then t_inf := true (* vertical: no line *)
      else begin
        let xx = Mont.sqr fp !tx in
        let yy = Mont.sqr fp !ty in
        let zz = Mont.sqr fp !tz in
        let m =
          Mont.add fp (Mont.add fp (Mont.add fp xx xx) xx) (Mont.sqr fp zz)
        in
        let s =
          let t = Mont.mul fp !tx yy in
          Mont.add fp (Mont.add fp t t) (Mont.add fp t t)
        in
        let z3 =
          let t = Mont.mul fp !ty !tz in
          Mont.add fp t t
        in
        let x3 = Mont.sub fp (Mont.sqr fp m) (Mont.add fp s s) in
        let eight_y4 =
          let y4 = Mont.sqr fp yy in
          let t2 = Mont.add fp y4 y4 in
          let t4 = Mont.add fp t2 t2 in
          Mont.add fp t4 t4
        in
        let y3 = Mont.sub fp (Mont.mul fp m (Mont.sub fp s x3)) eight_y4 in
        record m x3 y3 z3
      end
    in
    let add () =
      if !t_inf then begin
        (* O + P = P; vertical line: none *)
        tx := px;
        ty := py;
        tz := one;
        t_inf := false
      end
      else begin
        let zz = Mont.sqr fp !tz in
        let u2 = Mont.mul fp px zz in
        let s2 = Mont.mul fp (Mont.mul fp py !tz) zz in
        if Mont.equal fp u2 !tx then begin
          (* T = P draws the tangent; T = −P a vertical line *)
          if Mont.equal fp s2 !ty then double () else t_inf := true
        end
        else begin
          let h = Mont.sub fp u2 !tx in
          let r = Mont.sub fp s2 !ty in
          let hh = Mont.sqr fp h in
          let hhh = Mont.mul fp h hh in
          let v = Mont.mul fp !tx hh in
          let x3 = Mont.sub fp (Mont.sub fp (Mont.sqr fp r) hhh) (Mont.add fp v v) in
          let y3 =
            Mont.sub fp (Mont.mul fp r (Mont.sub fp v x3)) (Mont.mul fp !ty hhh)
          in
          record r x3 y3 (Mont.mul fp !tz h)
        end
      end
    in
    for i = nbits - 2 downto 0 do
      if not !t_inf then double ();
      incr j;
      if Bigint.testbit order i then begin
        add ();
        incr j
      end
    done;
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
   product pairs to 1. The tables share the step layout of q, so one walk
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
