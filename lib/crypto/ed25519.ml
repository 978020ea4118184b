(* The ed25519 twisted Edwards curve (-x^2 + y^2 = 1 + d x^2 y^2 over
   GF(2^255 - 19)) with Schnorr signatures.

   All group constants are computed rather than transcribed: d is
   -121665/121666, the base point is recovered from y = 4/5 with even x,
   and sqrt(-1) is 2^((p-1)/4). Module initialization asserts the base
   point is on the curve and that [L]B is the identity, so a derivation
   bug cannot go unnoticed.

   The signature scheme is textbook Schnorr over this curve with SHA-256
   as the hash (deliberately not RFC 8032 wire-compatible; this is a
   closed system with no interop requirement). *)

(* ------------------------------------------------------------------ *)
(* Field GF(p), p = 2^255 - 19, with pseudo-Mersenne reduction.        *)
(* ------------------------------------------------------------------ *)

module Fp = struct
  let p = Nat.sub (Nat.shift_left Nat.one 255) (Nat.of_int 19)

  (* x mod p, folding the high part with 2^255 = 19 (mod p). *)
  let reduce (x : Nat.t) : Nat.t =
    let x = ref x in
    while Nat.bit_length !x > 255 do
      let lo = Nat.low_bits !x 255 and hi = Nat.shift_right !x 255 in
      x := Nat.add lo (Nat.mul_int hi 19)
    done;
    if Nat.compare !x p >= 0 then Nat.sub !x p else !x

  let zero = Nat.zero
  let one = Nat.one
  let add a b = reduce (Nat.add a b)
  let sub a b = if Nat.compare a b >= 0 then Nat.sub a b else Nat.sub (Nat.add a p) b
  let mul a b = reduce (Nat.mul a b)
  let sqr a = mul a a
  let neg a = if Nat.is_zero a then a else Nat.sub p a

  (* Generic square-and-multiply; the exponent's bits are extracted to
     an int array once rather than re-querying the arbitrary-precision
     layer per bit. *)
  let pow (base : Nat.t) (e : Nat.t) : Nat.t =
    let bits = Nat.bits e in
    let result = ref one in
    let b = ref (reduce base) in
    let n = Array.length bits in
    for i = 0 to n - 1 do
      if bits.(i) = 1 then result := mul !result !b;
      if i < n - 1 then b := sqr !b
    done;
    !result

  let inv a = Addchain.pow_p_minus_2 ~mul ~sqr a

  (* sqrt(-1) = 2^((p-1)/4); (p-1)/4 = 2*(2^252 - 3) + 1. *)
  let sqrt_m1 = mul (sqr (Addchain.pow_2_252_minus_3 ~mul ~sqr Nat.two)) Nat.two

  (* Square root via the (p+3)/8 exponent trick, with the exponent
     (p+3)/8 = (p-5)/8 + 1 run as an addition chain. *)
  let sqrt (u : Nat.t) : Nat.t option =
    let u = reduce u in
    let cand = mul u (Addchain.pow_2_252_minus_3 ~mul ~sqr u) in
    let c2 = sqr cand in
    if Nat.equal c2 u then Some cand
    else begin
      let cand' = mul cand sqrt_m1 in
      if Nat.equal (sqr cand') u then Some cand' else None
    end

  let of_int = Nat.of_int
end

(* Curve coefficient d = -121665/121666 and 2d. *)
let d = Fp.mul (Fp.neg (Fp.of_int 121665)) (Fp.inv (Fp.of_int 121666))
let two_d = Fp.add d d

(* Prime subgroup order L = 2^252 + 27742317777372353535851937790883648493 *)
let order =
  Nat.add
    (Nat.shift_left Nat.one 252)
    (Nat.of_decimal "27742317777372353535851937790883648493")

(* ------------------------------------------------------------------ *)
(* Points in extended homogeneous coordinates (X : Y : Z : T).         *)
(*                                                                     *)
(* Coordinates live in the fixed-limb field (Fe25519): the group law   *)
(* runs thousands of field multiplications per scalar multiplication,  *)
(* and the fixed representation is several times faster than the       *)
(* generic Nat arithmetic (which remains the reference oracle in the   *)
(* Fp module above and in the test suite).                             *)
(*                                                                     *)
(* The group law is written once, in place: [double_to] and [add_to]   *)
(* store into a caller-owned point and take their field temporaries    *)
(* from a [scratch], so a scalar-multiplication chain allocates        *)
(* nothing per step. Only a point the running function created itself *)
(* is ever written; constants, tables and arguments are read-only.     *)
(* ------------------------------------------------------------------ *)

module Fe = Fe25519

type point = { x : Fe.t; y : Fe.t; z : Fe.t; t : Fe.t }

let two_d_fe = Fe.of_nat two_d
let d_fe = Fe.of_nat d

let identity = { x = Fe.zero (); y = Fe.one (); z = Fe.one (); t = Fe.zero () }

let copy_point (p : point) : point =
  { x = Fe.copy p.x; y = Fe.copy p.y; z = Fe.copy p.z; t = Fe.copy p.t }

let to_affine (p : point) : Nat.t * Nat.t =
  let zi = Fe.inv p.z in
  (Fe.to_nat (Fe.mul p.x zi), Fe.to_nat (Fe.mul p.y zi))

let on_curve (pt : point) : bool =
  let x, y = to_affine pt in
  let x2 = Fp.sqr x and y2 = Fp.sqr y in
  let lhs = Fp.sub y2 x2 in
  let rhs = Fp.add Fp.one (Fp.mul d (Fp.mul x2 y2)) in
  Nat.equal lhs rhs

(* An addend as the addition formula consumes it: Y+X, Y-X, 2d*T and
   Z, with [cz = None] for an affine point (Z = 1), which saves one
   multiplication per addition. Every precomputed table holds these. *)
type cached = { ypx : Fe.t; ymx : Fe.t; t2d : Fe.t; cz : Fe.t option }

let cached_of (p : point) : cached =
  { ypx = Fe.add p.y p.x; ymx = Fe.sub p.y p.x; t2d = Fe.mul p.t two_d_fe; cz = Some (Fe.copy p.z) }

(* Requires p.z = 1 (see [normalize_many]). *)
let cached_of_affine (p : point) : cached = { (cached_of p) with cz = None }

(* Field temporaries for the in-place formulas. Each chain makes its
   own, so domains running chains at once never share one. *)
type scratch = { s0 : Fe.t; s1 : Fe.t; s2 : Fe.t; s3 : Fe.t; s4 : Fe.t }

let scratch () : scratch =
  { s0 = Fe.create (); s1 = Fe.create (); s2 = Fe.create (); s3 = Fe.create (); s4 = Fe.create () }

let fresh_point () : point = { x = Fe.create (); y = Fe.create (); z = Fe.create (); t = Fe.create () }

(* r <- 2p; r may be p. Doubling never reads T, so at a chain position
   whose next operation is another doubling the T multiplication is
   waste: [~with_t:false] skips it and leaves r.t stale. The chain
   computes T at positions with a nonzero digit and at position 0, so
   every point that escapes a chain carries a valid T. *)
let double_to (s : scratch) ~(with_t : bool) (r : point) (p : point) : unit =
  Fe.sqr_to s.s0 p.x (* A = X^2 *);
  Fe.sqr_to s.s1 p.y (* B = Y^2 *);
  Fe.sqr_to s.s2 p.z;
  Fe.add_to s.s2 s.s2 s.s2 (* C = 2 Z^2 *);
  Fe.add_to s.s3 s.s0 s.s1 (* H = A + B *);
  Fe.add_to s.s4 p.x p.y;
  Fe.sqr_to s.s4 s.s4;
  Fe.sub_to s.s4 s.s3 s.s4 (* E = H - (X + Y)^2 *);
  Fe.sub_to s.s1 s.s0 s.s1 (* G = A - B *);
  Fe.add_to s.s2 s.s2 s.s1 (* F = C + G *);
  Fe.mul_to r.x s.s4 s.s2;
  Fe.mul_to r.y s.s1 s.s3;
  if with_t then Fe.mul_to r.t s.s4 s.s3;
  Fe.mul_to r.z s.s2 s.s1

(* r <- p + q, or p - q with [~neg:true]: RFC 8032 extended addition
   (a = -1, complete formulas). Negating q swaps Y+X with Y-X and
   negates 2dT, which swaps the F and G terms. r may be p. *)
let add_to (s : scratch) ~(neg : bool) (r : point) (p : point) (q : cached) : unit =
  Fe.add_to s.s0 p.y p.x;
  Fe.mul_to s.s0 s.s0 (if neg then q.ymx else q.ypx) (* B *);
  Fe.sub_to s.s1 p.y p.x;
  Fe.mul_to s.s1 s.s1 (if neg then q.ypx else q.ymx) (* A *);
  Fe.mul_to s.s2 q.t2d p.t (* C, up to sign *);
  (match q.cz with
  | None -> Fe.add_to s.s3 p.z p.z
  | Some z ->
    Fe.mul_to s.s3 p.z z;
    Fe.add_to s.s3 s.s3 s.s3) (* D = 2 Z1 Z2 *);
  Fe.sub_to s.s4 s.s0 s.s1 (* E = B - A *);
  Fe.add_to s.s0 s.s0 s.s1 (* H = B + A *);
  if neg then begin
    Fe.add_to s.s1 s.s3 s.s2;
    Fe.sub_to s.s3 s.s3 s.s2
  end
  else begin
    Fe.sub_to s.s1 s.s3 s.s2 (* F = D - C *);
    Fe.add_to s.s3 s.s3 s.s2 (* G = D + C *)
  end;
  Fe.mul_to r.x s.s4 s.s1;
  Fe.mul_to r.y s.s3 s.s0;
  Fe.mul_to r.t s.s4 s.s0;
  Fe.mul_to r.z s.s1 s.s3

let add (p : point) (q : point) : point =
  let r = fresh_point () in
  add_to (scratch ()) ~neg:false r p (cached_of q);
  r

let double (p : point) : point =
  let r = fresh_point () in
  double_to (scratch ()) ~with_t:true r p;
  r

let neg (p : point) : point = { p with x = Fe.neg p.x; t = Fe.neg p.t }

let scalar_mult (k : Nat.t) (p : point) : point =
  let acc = ref identity in
  for i = Nat.bit_length k - 1 downto 0 do
    acc := double !acc;
    if Nat.testbit k i then acc := add !acc p
  done;
  !acc

let equal_points (p : point) (q : point) : bool =
  (* Cross-multiplied comparison avoids inversions. *)
  Fe.equal (Fe.mul p.x q.z) (Fe.mul q.x p.z)
  && Fe.equal (Fe.mul p.y q.z) (Fe.mul q.y p.z)

(* ------------------------------------------------------------------ *)
(* The fast scalar-multiplication engine.                              *)
(*                                                                     *)
(* Building blocks: batched affine conversion (one shared inversion),  *)
(* precomputed affine addends (7M per addition instead of 8M), and     *)
(* signed sliding-window (w-NAF) scalar recoding. On top of these sit  *)
(* a fixed-base comb table for B (sign, keygen, VRF nonces) and one    *)
(* interleaved w-NAF chain that serves variable-base multiplication,   *)
(* Strauss-Shamir double-scalar multiplication (verification) and the  *)
(* n-way multi-scalar accumulator (batch verification). The naive      *)
(* [scalar_mult] above stays as the randomized-test oracle.            *)
(* ------------------------------------------------------------------ *)

(* Normalize many points to z = 1 with a single field inversion
   (Montgomery's trick); used to build precomputed tables cheaply. *)
let normalize_many (ps : point array) : point array =
  let zinvs = Fe.inv_many (Array.map (fun p -> p.z) ps) in
  Array.mapi
    (fun i p ->
      let x = Fe.mul p.x zinvs.(i) and y = Fe.mul p.y zinvs.(i) in
      { x; y; z = Fe.one (); t = Fe.mul x y })
    ps

let to_affine_many (ps : point array) : (Nat.t * Nat.t) array =
  Array.map (fun p -> (Fe.to_nat p.x, Fe.to_nat p.y)) (normalize_many ps)

(* Signed sliding-window recoding: digits are odd with |d| < 2^(w-1),
   and any w consecutive positions hold at most one nonzero digit, so
   a 253-bit scalar costs ~253/(w+1) additions. *)
let wnaf_digits (k : Nat.t) ~(w : int) : int array =
  let kbits = Nat.bits k in
  let n = Array.length kbits in
  let len = n + (2 * w) + 2 in
  let bits = Array.make len 0 in
  Array.blit kbits 0 bits 0 n;
  let naf = Array.make len 0 in
  let i = ref 0 in
  while !i < len do
    if bits.(!i) = 0 then incr i
    else begin
      (* Odd here: take w bits as a signed digit. *)
      let u = ref 0 in
      for j = w - 1 downto 0 do
        u := (!u lsl 1) lor (if !i + j < len then bits.(!i + j) else 0)
      done;
      let d = if !u land (1 lsl (w - 1)) <> 0 then !u - (1 lsl w) else !u in
      naf.(!i) <- d;
      for j = 0 to w - 1 do
        if !i + j < len then bits.(!i + j) <- 0
      done;
      (* A negative digit borrows 2^w: propagate the carry upward. *)
      if d < 0 then begin
        let j = ref (!i + w) in
        while !j < len && bits.(!j) = 1 do
          bits.(!j) <- 0;
          incr j
        done;
        if !j < len then bits.(!j) <- 1
      end;
      i := !i + w
    end
  done;
  naf

let top_nonzero (naf : int array) : int =
  let i = ref (Array.length naf - 1) in
  while !i >= 0 && naf.(!i) = 0 do
    decr i
  done;
  !i

(* [p; 3p; 5p; ...; (2*size - 1)p] in extended coordinates. *)
let odd_multiples (p : point) ~(size : int) : point array =
  let p2 = double p in
  let tbl = Array.make size p in
  for i = 1 to size - 1 do
    tbl.(i) <- add tbl.(i - 1) p2
  done;
  tbl

(* sum_k naf_k * P_k in one shared doubling chain (Strauss-Shamir
   interleaving), where tbls.(k) holds the odd multiples P_k, 3P_k,
   5P_k, ... and nafs.(k) the w-NAF digits of the k-th scalar. *)
let wnaf_chain (nafs : int array array) (tbls : cached array array) : point =
  let n = Array.length nafs in
  let digit k i = if i < Array.length nafs.(k) then nafs.(k).(i) else 0 in
  let top = Array.fold_left (fun m naf -> max m (top_nonzero naf)) (-1) nafs in
  let s = scratch () in
  let acc = copy_point identity in
  for i = top downto 0 do
    let live = ref (i = 0) in
    for k = 0 to n - 1 do
      if digit k i <> 0 then live := true
    done;
    double_to s ~with_t:!live acc acc;
    for k = 0 to n - 1 do
      let d = digit k i in
      if d > 0 then add_to s ~neg:false acc acc tbls.(k).((d - 1) / 2)
      else if d < 0 then add_to s ~neg:true acc acc tbls.(k).((-d - 1) / 2)
    done
  done;
  acc

let odd_multiples_cached (p : point) : cached array =
  Array.map cached_of (odd_multiples p ~size:8)

(* Variable-base w-NAF scalar multiplication. The scalar is NOT reduced
   mod L, so this is exact on the whole group (including mixed-order
   points), matching the naive oracle. *)
let scalar_mult_fast (k : Nat.t) (p : point) : point =
  wnaf_chain [| wnaf_digits k ~w:5 |] [| odd_multiples_cached p |]

(* ------------------------------------------------------------------ *)
(* Point compression: 32 bytes, little-endian y with x parity on top.  *)
(* ------------------------------------------------------------------ *)

let encode (p : point) : string =
  let x, y = to_affine p in
  let b = Bytes.of_string (Nat.to_bytes_le y ~len:32) in
  if Nat.testbit x 0 then Bytes.set b 31 (Char.chr (Char.code (Bytes.get b 31) lor 0x80));
  Bytes.unsafe_to_string b

(* Encode a whole array with one shared inversion; each [encode] above
   costs a full field inversion, so callers that need several encodings
   at once (the VRF's proof and verification points) batch them. *)
let encode_many (ps : point array) : string array =
  Array.map
    (fun p ->
      (* z = 1 after normalization, so x and y are affine. *)
      let b = Bytes.of_string (Nat.to_bytes_le (Fe.to_nat p.y) ~len:32) in
      if Fe.parity p.x = 1 then
        Bytes.set b 31 (Char.chr (Char.code (Bytes.get b 31) lor 0x80));
      Bytes.unsafe_to_string b)
    (normalize_many ps)

(* Decompression runs entirely in the fast field: x is recovered with
   the combined sqrt-ratio trick (one addition chain, no inversion),
   several times cheaper than the old Nat-based sqrt + invert path.
   Non-canonical encodings (y >= p, or x = 0 with the sign bit set) are
   rejected as before. *)
let decode (s : string) : point option =
  if String.length s <> 32 then None
  else begin
    let sign = Char.code s.[31] lsr 7 in
    let y_bytes =
      let b = Bytes.of_string s in
      Bytes.set b 31 (Char.chr (Char.code (Bytes.get b 31) land 0x7f));
      Bytes.unsafe_to_string b
    in
    let y_nat = Nat.of_bytes_le y_bytes in
    if Nat.compare y_nat Fp.p >= 0 then None
    else begin
      let y = Fe.of_nat y_nat in
      let y2 = Fe.sqr y in
      let u = Fe.sub y2 (Fe.one ()) in
      let v = Fe.add (Fe.mul d_fe y2) (Fe.one ()) in
      match Fe.sqrt_ratio ~u ~v with
      | None -> None
      | Some x ->
        if Fe.is_zero x && sign = 1 then None
        else begin
          let x = if Fe.parity x <> sign then Fe.neg x else x in
          Some { x; y; z = Fe.one (); t = Fe.mul x y }
        end
    end
  end

(* Base point: y = 4/5, even x. *)
let base =
  let y = Fp.mul (Fp.of_int 4) (Fp.inv (Fp.of_int 5)) in
  let enc = Nat.to_bytes_le y ~len:32 in
  match decode enc with
  | Some b -> b
  | None -> failwith "ed25519: base point derivation failed"

let () =
  (* Self-check the derived constants once at startup. *)
  assert (on_curve base);
  assert (equal_points (scalar_mult order base) identity)

(* ------------------------------------------------------------------ *)
(* Precomputed tables for the base point.                              *)
(* ------------------------------------------------------------------ *)

(* Fixed-base comb: radix-16 digits of the (mod-L-reduced) scalar, one
   precomputed row per digit position, so k*P costs ~64 mixed additions
   and zero doublings. comb.(i).(j-1) = j * 16^i * P. Built for the
   base point below, and on demand for any other heavily-reused point
   (sortition's per-step hash-to-curve point). *)
let comb_positions = 64
let comb_row = 15

type comb = cached array array

(* ~1000 point operations plus one shared inversion: only worth
   building for a point that will be multiplied many times. [p] must
   lie in the prime-order subgroup, because [scalar_mult_comb] reduces
   scalars mod L before taking digits. *)
let comb_of_point (p : point) : comb =
  let buf = Array.make (comb_positions * comb_row) identity in
  let pos = ref p (* 16^i * P *) in
  for i = 0 to comb_positions - 1 do
    let acc = ref !pos in
    for j = 1 to comb_row do
      buf.((i * comb_row) + (j - 1)) <- !acc;
      acc := add !acc !pos
    done;
    for _ = 1 to 4 do
      pos := double !pos
    done
  done;
  let affine = normalize_many buf in
  Array.init comb_positions (fun i ->
      Array.init comb_row (fun j -> cached_of_affine affine.((i * comb_row) + j)))

let comb_table : comb = comb_of_point base

(* Odd multiples B, 3B, ..., 63B for the w=7 w-NAF base-point side of
   Strauss-Shamir and batch accumulation. *)
let base_wnaf_table : cached array =
  Array.map cached_of_affine (normalize_many (odd_multiples base ~size:32))

(* k*P off a comb table. P has order L, so reducing k mod L first is
   exact and bounds the digit count. *)
let scalar_mult_comb (c : comb) (k : Nat.t) : point =
  let k = Nat.rem k order in
  let bytes = Nat.to_bytes_le k ~len:32 in
  let s = scratch () in
  let acc = copy_point identity in
  for i = 0 to comb_positions - 1 do
    let byte = Char.code bytes.[i / 2] in
    let digit = if i land 1 = 0 then byte land 0xf else byte lsr 4 in
    if digit <> 0 then add_to s ~neg:false acc acc c.(i).(digit - 1)
  done;
  acc

let scalar_mult_base (k : Nat.t) : point = scalar_mult_comb comb_table k

(* a*B + b*Q in one shared doubling chain, the base-point digits off
   the precomputed w=7 table. b is used unreduced so the result is
   exact for Q of any order. *)
let double_scalar_mult_base (a : Nat.t) (b : Nat.t) (q : point) : point =
  wnaf_chain
    [| wnaf_digits (Nat.rem a order) ~w:7; wnaf_digits b ~w:5 |]
    [| base_wnaf_table; odd_multiples_cached q |]

(* a*P + b*Q for two variable points, one shared doubling chain. *)
let double_scalar_mult (a : Nat.t) (p : point) (b : Nat.t) (q : point) : point =
  wnaf_chain
    [| wnaf_digits a ~w:5; wnaf_digits b ~w:5 |]
    [| odd_multiples_cached p; odd_multiples_cached q |]

(* kb*B + sum_i k_i*P_i: the n-way interleaved accumulator behind batch
   verification. One doubling chain total; each point pays only its own
   w-NAF additions and an 8-entry odd-multiples table. *)
let multi_scalar_mult_base ~(base_scalar : Nat.t) (pairs : (Nat.t * point) list) : point =
  let pairs = Array.of_list pairs in
  wnaf_chain
    (Array.append
       [| wnaf_digits (Nat.rem base_scalar order) ~w:7 |]
       (Array.map (fun (k, _) -> wnaf_digits k ~w:5) pairs))
    (Array.append [| base_wnaf_table |] (Array.map (fun (_, p) -> odd_multiples_cached p) pairs))

(* Membership in the prime-order subgroup: [L]P = O. Curve points have
   order dividing 8L, so this rejects any small-order component. *)
let in_prime_subgroup (p : point) : bool =
  equal_points (scalar_mult_fast order p) identity

(* Decode a key that must lie in the prime subgroup, memoized: the
   subgroup check is a full scalar multiplication, and verification
   keys repeat heavily (every committee vote, every round), so the
   steady-state cost is one hash lookup. Bounded; reset on overflow. *)
let checked_cache : (string, point option) Hashtbl.t = Hashtbl.create 1024
let checked_cache_limit = 16_384

let decode_checked (s : string) : point option =
  match Hashtbl.find_opt checked_cache s with
  | Some r -> r
  | None ->
    let r =
      match decode s with
      | Some p when in_prime_subgroup p -> Some p
      | _ -> None
    in
    if Hashtbl.length checked_cache >= checked_cache_limit then
      Hashtbl.reset checked_cache;
    Hashtbl.add checked_cache s r;
    r

let () =
  (* Cross-check every table-driven path against the naive oracle once
     at startup, so a table-construction bug cannot go unnoticed. *)
  let k = Nat.rem (Nat.of_bytes_le (Sha256.digest "ed25519-selfcheck")) order in
  let expect = scalar_mult k base in
  assert (equal_points (scalar_mult_base k) expect);
  assert (equal_points (scalar_mult_fast k base) expect);
  assert (
    equal_points
      (double_scalar_mult_base k k (double base))
      (scalar_mult_base (Nat.mul k (Nat.of_int 3))));
  assert (in_prime_subgroup base)

(* ------------------------------------------------------------------ *)
(* Schnorr signatures.                                                 *)
(* ------------------------------------------------------------------ *)

type secret = { seed : string; scalar : Nat.t; public : string }
type public = string

let scalar_of_hash (h : string) : Nat.t =
  (* Uniform nonzero scalar: 1 + (h mod (L-1)). *)
  Nat.add Nat.one (Nat.rem (Nat.of_bytes_le h) (Nat.sub order Nat.one))

let derive_scalar ~seed = scalar_of_hash (Sha256.digest_concat [ "ed25519-scalar"; seed ])

let generate ~(seed : string) : secret =
  let scalar = derive_scalar ~seed in
  let public = encode (scalar_mult_base scalar) in
  { seed; scalar; public }

let public_key (sk : secret) : public = sk.public
let secret_scalar (sk : secret) : Nat.t = sk.scalar
let secret_seed (sk : secret) : string = sk.seed

let signature_length = 64

let challenge ~r_enc ~public ~msg =
  Nat.rem (Nat.of_bytes_le (Sha256.digest_concat [ "ed25519-chal"; r_enc; public; msg ])) order

let sign (sk : secret) (msg : string) : string =
  let k = scalar_of_hash (Sha256.digest_concat [ "ed25519-nonce"; sk.seed; msg ]) in
  let r_enc = encode (scalar_mult_base k) in
  let e = challenge ~r_enc ~public:sk.public ~msg in
  let s = Nat.rem (Nat.add k (Nat.mul e sk.scalar)) order in
  r_enc ^ Nat.to_bytes_le s ~len:32

(* Verification checks s*B - e*A = R with one Strauss-Shamir chain.

   The public key must decode into the prime subgroup ([decode_checked]):
   a key A' = A + D with D of small order would otherwise validate
   signatures made for A whenever e*D = O (the classic small-order
   forgery). R needs no separate check: with A and B in the prime
   subgroup, s*B - e*A is too, and the *exact* (non-cofactored) point
   equality then forces R to match it exactly - an R with a small-order
   component can never satisfy the equation. *)
let verify ~(public : public) ~(msg : string) ~(signature : string) : bool =
  String.length signature = signature_length
  &&
  let r_enc = String.sub signature 0 32 in
  let s = Nat.of_bytes_le (String.sub signature 32 32) in
  Nat.compare s order < 0
  &&
  match (decode r_enc, decode_checked public) with
  | Some r, Some a ->
    let e = challenge ~r_enc ~public ~msg in
    (* s*B - e*A = R *)
    equal_points (double_scalar_mult_base s e (neg a)) r
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Batch verification.                                                 *)
(*                                                                     *)
(* A random linear combination folds n verification equations into one *)
(* multi-scalar accumulation sharing a single doubling chain:          *)
(*                                                                     *)
(*   (sum z_i s_i mod L) * B - sum z_i R_i - sum (z_i e_i mod L) A_i   *)
(*     = sum z_i (s_i B - e_i A_i - R_i)  =  O                         *)
(*                                                                     *)
(* with 128-bit coefficients z_i drawn from the deterministic Drbg     *)
(* seeded by a hash of the whole batch (Fiat-Shamir style: the batch   *)
(* content is fixed before the coefficients exist). If some signature  *)
(* i fails s_i B - e_i A_i = R_i, the combination vanishes for at most *)
(* a 2^-128 fraction of coefficient vectors. Public keys go through    *)
(* the same prime-subgroup check as single verification; see DESIGN.md *)
(* for the soundness discussion.                                       *)
(* ------------------------------------------------------------------ *)

(* Bounding the chunk size bounds the w-NAF table memory. *)
let batch_chunk = 256

let verify_batch (items : (public * string * string) list) : bool =
  let check_chunk chunk =
    let parsed =
      List.map
        (fun (pk, msg, signature) ->
          if String.length signature <> signature_length then None
          else begin
            let r_enc = String.sub signature 0 32 in
            let s = Nat.of_bytes_le (String.sub signature 32 32) in
            if Nat.compare s order >= 0 then None
            else begin
              match (decode r_enc, decode_checked pk) with
              | Some r, Some a ->
                let e = challenge ~r_enc ~public:pk ~msg in
                Some (pk, r_enc, signature, s, e, r, a)
              | _ -> None
            end
          end)
        chunk
    in
    List.for_all Option.is_some parsed
    &&
    let parsed = List.filter_map Fun.id parsed in
    let seed =
      Sha256.digest_concat
        ("ed25519-batch"
        :: List.concat_map
             (fun (pk, _, signature, _, _, _, _) -> [ pk; signature ])
             parsed)
    in
    let drbg = Drbg.create ~seed in
    let terms =
      List.map
        (fun (_, _, _, s, e, r, a) -> (Drbg.random_nat drbg ~bytes:16, s, e, r, a))
        parsed
    in
    (* The scalars stay unreduced: w-NAF is exact on scalars of any
       length. The z_i*e_i products are ~381 bits, which only lengthens
       the shared doubling chain by ~128 doubles per chunk - less than
       a mod-L reduction per signature. One reduction of the summed
       base scalar happens inside [multi_scalar_mult_base]. *)
    let combined_s =
      List.fold_left (fun acc (z, s, _, _, _) -> Nat.add acc (Nat.mul z s)) Nat.zero terms
    in
    let pairs =
      List.concat_map
        (fun (z, _, e, r, a) -> [ (z, neg r); (Nat.mul z e, neg a) ])
        terms
    in
    equal_points (multi_scalar_mult_base ~base_scalar:combined_s pairs) identity
  in
  let rec chunks = function
    | [] -> true
    | items ->
      let rec split n acc = function
        | rest when n = 0 -> (List.rev acc, rest)
        | [] -> (List.rev acc, [])
        | x :: rest -> split (n - 1) (x :: acc) rest
      in
      let chunk, rest = split batch_chunk [] items in
      check_chunk chunk && chunks rest
  in
  chunks items
