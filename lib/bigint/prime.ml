let small_primes =
  (* primes below 1000 via a small sieve, computed once at load time *)
  let limit = 1000 in
  let sieve = Array.make (limit + 1) true in
  sieve.(0) <- false;
  sieve.(1) <- false;
  for i = 2 to limit do
    if sieve.(i) then begin
      let j = ref (i * i) in
      while !j <= limit do
        sieve.(!j) <- false;
        j := !j + i
      done
    end
  done;
  let out = ref [] in
  for i = limit downto 2 do
    if sieve.(i) then out := i :: !out
  done;
  Array.of_list !out

let divisible_by_small_prime n =
  let found = ref false in
  (try
     Array.iter
       (fun p ->
         let bp = Bigint.of_int p in
         if Bigint.compare bp n < 0 && Bigint.is_zero (Bigint.rem n bp) then begin
           found := true;
           raise Exit
         end)
       small_primes
   with Exit -> ());
  !found

let miller_rabin n ~bases =
  (* n odd, > 3 *)
  let n1 = Bigint.pred n in
  let rec split d s =
    if Bigint.is_even d then split (Bigint.shift_right d 1) (s + 1) else (d, s)
  in
  let d, s = split n1 0 in
  let witness a =
    let a = Bigint.erem a n in
    if Bigint.is_zero a || Bigint.is_one a || Bigint.equal a n1 then false
    else begin
      let x = ref (Modular.powm a d n) in
      if Bigint.is_one !x || Bigint.equal !x n1 then false
      else begin
        let composite = ref true in
        (try
           for _ = 1 to s - 1 do
             x := Modular.mul !x !x n;
             if Bigint.equal !x n1 then begin
               composite := false;
               raise Exit
             end
           done
         with Exit -> ());
        !composite
      end
    end
  in
  not (List.exists witness bases)

(* Witnesses proven sufficient for n < 3,215,031,751 *)
let deterministic_bases = List.map Bigint.of_int [ 2; 3; 5; 7 ]
let deterministic_limit = Bigint.of_string "3215031751"

let rounds = 32

let is_probable_prime n =
  if Bigint.compare n Bigint.two < 0 then false
  else if Bigint.compare n (Bigint.of_int 1000) <= 0 then begin
    let v = Bigint.to_int n in
    Array.exists (fun p -> p = v) small_primes
  end
  else if Bigint.is_even n then false
  else if divisible_by_small_prime n then false
  else if Bigint.compare n deterministic_limit < 0 then
    miller_rabin n ~bases:deterministic_bases
  else begin
    (* derive pseudo-random bases from n itself: adequate for adversary-free
       parameter generation, and deterministic for reproducibility *)
    let seed = ref (Bigint.erem n (Bigint.shift_left Bigint.one 61)) in
    let bases = ref [] in
    for i = 1 to rounds do
      seed :=
        Bigint.erem
          (Bigint.add_int
             (Bigint.mul !seed (Bigint.of_string "6364136223846793005"))
             (1442695040888963407 + i))
          (Bigint.shift_left Bigint.one 61);
      let base =
        Bigint.add Bigint.two (Bigint.erem !seed (Bigint.sub n (Bigint.of_int 4)))
      in
      bases := base :: !bases
    done;
    miller_rabin n ~bases:!bases
  end

let random_prime rng ~bits =
  if bits < 2 then invalid_arg "Prime.random_prime: bits < 2";
  let rec draw () =
    let candidate = Bigint.random_bits rng bits in
    (* force top bit (exact size) and low bit (odd) *)
    let candidate =
      Bigint.logor candidate (Bigint.shift_left Bigint.one (bits - 1))
    in
    let candidate = Bigint.logor candidate Bigint.one in
    if is_probable_prime candidate then candidate else draw ()
  in
  if bits = 2 then Bigint.of_int 3 else draw ()

let next_prime n =
  let start =
    if Bigint.compare n Bigint.two < 0 then Bigint.two
    else begin
      let n = Bigint.succ n in
      if Bigint.is_even n then Bigint.succ n else n
    end
  in
  if Bigint.equal start Bigint.two then Bigint.two
  else begin
    let candidate = ref start in
    while not (is_probable_prime !candidate) do
      candidate := Bigint.add !candidate Bigint.two
    done;
    !candidate
  end
