(* SHA-256 (FIPS 180-4), pure OCaml.

   The round constants are the first 32 bits of the fractional parts of
   the cube roots of the first 64 primes, and the initial hash state
   comes from the square roots of the first 8 primes. Rather than
   transcribing 72 magic words (and risking a silent typo), we derive
   them exactly at module initialization with integer root extraction,
   and the test suite pins the resulting digests to known vectors. *)

let first_primes n =
  let rec is_prime k d = d * d > k || (k mod d <> 0 && is_prime k (d + 1)) in
  let rec collect acc k = if List.length acc = n then List.rev acc else collect (if is_prime k 2 then k :: acc else acc) (k + 1) in
  collect [] 2

(* Integer k-th root of [p * 2^(32k)]; the result fits easily in an int. *)
let scaled_root ~k p =
  let target = Nat.shift_left (Nat.of_int p) (32 * k) in
  let pow_k x =
    let nx = Nat.of_int x in
    let rec go acc i = if i = 0 then acc else go (Nat.mul acc nx) (i - 1) in
    go nx (k - 1)
  in
  let rec search lo hi =
    (* invariant: lo^k <= target < (hi+1)^k *)
    if lo = hi then lo
    else begin
      let mid = (lo + hi + 1) / 2 in
      if Nat.compare (pow_k mid) target <= 0 then search mid hi else search lo (mid - 1)
    end
  in
  search 0 (1 lsl 36)

let mask32 = 0xFFFFFFFF

(* Forced at module initialization, not lazily: several domains may
   hash at once, and a lazy value forced concurrently raises. *)
let k_table = Array.of_list (List.map (fun p -> scaled_root ~k:3 p land mask32) (first_primes 64))

let h_init = Array.of_list (List.map (fun p -> scaled_root ~k:2 p land mask32) (first_primes 8))

let init (h : int array) = Array.blit h_init 0 h 0 8

(* [x] (a 32-bit word) rotated right by [n]. Bits above 31 are left as
   garbage: every rotation feeds a sum or an xor that is masked before
   it is stored, and garbage above bit 31 never reaches the low 32
   bits of a sum. *)
let[@inline] rotr x n = (x lsr n) lor (x lsl (32 - n))

let expand (block : string) (off : int) (w : int array) (woff : int) =
  if off < 0 || off + 64 > String.length block || woff < 0 || woff + 64 > Array.length w
  then invalid_arg "Sha256.expand";
  for t = 0 to 15 do
    Array.unsafe_set w (woff + t)
      (Int32.to_int (String.get_int32_be block (off + (4 * t))) land mask32)
  done;
  for t = woff + 16 to woff + 63 do
    let x = Array.unsafe_get w (t - 15) and y = Array.unsafe_get w (t - 2) in
    let s0 = rotr x 7 lxor rotr x 18 lxor (x lsr 3) in
    let s1 = rotr y 17 lxor rotr y 19 lxor (y lsr 10) in
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16) + s0 + Array.unsafe_get w (t - 7) + s1) land mask32)
  done

let rounds (h : int array) (w : int array) (woff : int) =
  if Array.length h < 8 || woff < 0 || woff + 64 > Array.length w then
    invalid_arg "Sha256.rounds";
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for t = 0 to 63 do
    let e' = !e and a' = !a in
    let s1 = rotr e' 6 lxor rotr e' 11 lxor rotr e' 25 in
    let ch = (e' land !f) lxor (lnot e' land !g) in
    let t1 = !hh + s1 + ch + Array.unsafe_get k_table t + Array.unsafe_get w (woff + t) in
    let s0 = rotr a' 2 lxor rotr a' 13 lxor rotr a' 22 in
    let maj = (a' land !b) lxor (a' land !c) lxor (!b land !c) in
    hh := !g;
    g := !f;
    f := e';
    e := (!d + t1) land mask32;
    d := !c;
    c := !b;
    b := a';
    a := (t1 + s0 + maj) land mask32
  done;
  h.(0) <- (h.(0) + !a) land mask32;
  h.(1) <- (h.(1) + !b) land mask32;
  h.(2) <- (h.(2) + !c) land mask32;
  h.(3) <- (h.(3) + !d) land mask32;
  h.(4) <- (h.(4) + !e) land mask32;
  h.(5) <- (h.(5) + !f) land mask32;
  h.(6) <- (h.(6) + !g) land mask32;
  h.(7) <- (h.(7) + !hh) land mask32

let compress (h : int array) ~(w : int array) (block : string) (off : int) =
  expand block off w 0;
  rounds h w 0

let digest_length = 32

(* [msg] from byte [off] on, then the padding that completes the whole
   of [msg]: 0x80, zeroes, and the 64-bit big-endian bit length. *)
let pad (msg : string) ~(off : int) : string =
  let len = String.length msg in
  let rest = len - off in
  let total = ((rest + 8) / 64 * 64) + 64 in
  let b = Bytes.make total '\000' in
  Bytes.blit_string msg off b 0 rest;
  Bytes.set b rest '\x80';
  Bytes.set_int64_be b (total - 8) (Int64.of_int (len * 8));
  Bytes.unsafe_to_string b

let digest (msg : string) : string =
  let h = Array.copy h_init and w = Array.make 64 0 in
  let full_blocks = String.length msg / 64 in
  for i = 0 to full_blocks - 1 do
    compress h ~w msg (i * 64)
  done;
  let tail = pad msg ~off:(full_blocks * 64) in
  for i = 0 to (String.length tail / 64) - 1 do
    compress h ~w tail (i * 64)
  done;
  let out = Bytes.create digest_length in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int h.(i))
  done;
  Bytes.unsafe_to_string out

let digest_hex msg = Hex.of_string (digest msg)

let digest_concat parts = digest (String.concat "" parts)

(* A short (62-bit) nonnegative int view of a digest, handy for seeding
   simulation RNGs from protocol-level hashes. *)
let digest_int msg =
  let d = digest msg in
  let v = ref 0 in
  for i = 0 to 7 do
    v := (!v lsl 8) lor Char.code d.[i]
  done;
  !v land max_int
