(* Fixed-size field arithmetic for GF(p), p = 2^255 - 19.

   Representation: ten limbs in native ints, radix 2^25.5 (the ref10
   layout). Limb i sits at bit w_i = ceil(25.5 i) = 0, 26, 51, 77, ...,
   230 and is nominally 26 bits wide for even i and 25 bits for odd i,
   so 2^255 falls exactly at the top and folds back as 19 (2^255 = 19
   mod p).

   Invariant (weakly reduced). Every value an operation takes or
   returns has nonnegative limbs with

       limb i < 2^26            for even i,
       limb i < 2^25 + 2^12     for odd i.

   The represented value is then below 2^255 + 2^243 < 2p, but it need
   not be below p: operations never canonicalize. Full reduction runs
   only where a value is observed ([equal], [is_zero], [parity],
   [to_nat]; encodings go through [to_nat] and [parity]).

   Bounds (a native int holds up to 2^62 - 1):

   - [mul]/[sqr]: column k of the schoolbook product is the sum of
     ten terms f_i g_j, a term doubled when i and j are both odd (two
     half-bit offsets) and multiplied by 19 when i + j >= 10 (the
     fold). With limbs at their maxima every term is below 2^57 and
     every column below 2^59 (column 0, the largest, is below
     124.6 * 2^52). The folded columns need no pre-carry.
   - [add]/[sub]/[neg] form limb sums below 2^28: sub and neg add 2p
     (limbs 2^27 - 38, 2^26 - 2, 2^27 - 2, ...), which is at least
     every limb the invariant allows, so no limb goes negative.
   - One carry pass ([carry_to]) restores the invariant: each limb is
     cut to its width and its carry moves up, in ref10's interleaved
     order (0,4), (1,5), (2,6), (3,7), (4,8), 9 -> 0 times 19, 0. Only
     limbs 1 and 5 receive a carry after being cut; from columns below
     2^59 that carry is below 2^9.

   The test suite cross-checks every operation against the Nat oracle
   on random values, on long chains with no reduction in between, and
   on inputs with every limb at its maximum. *)

let limbs = 10
let mask26 = (1 lsl 26) - 1
let mask25 = (1 lsl 25) - 1

type t = int array (* 10 limbs, weakly reduced (see above) *)

let width i = if i land 1 = 0 then 26 else 25
let limb_bound i = if i land 1 = 0 then 1 lsl 26 else (1 lsl 25) + (1 lsl 12)

let[@inline] get (a : t) i = Array.unsafe_get a i
let[@inline] set (a : t) i v = Array.unsafe_set a i v

(* A fresh value. The literal is built from a run-time zero so the
   compiler allocates it inline: a literal of constants would be copied
   out of static data through the runtime, which costs more than the
   addition it is for. *)
let create () : t =
  let z = Sys.opaque_identity 0 in
  [| z; z; z; z; z; z; z; z; z; z |]

let zero = create

let one () : t =
  let a = create () in
  a.(0) <- 1;
  a

let copy : t -> t = Array.copy

(* The carry pass: every h_i nonnegative and below 2^62 - 2^42. *)
let carry_to (r : t) h0 h1 h2 h3 h4 h5 h6 h7 h8 h9 : unit =
  let c = h0 lsr 26 in
  let h0 = h0 land mask26 and h1 = h1 + c in
  let c = h4 lsr 26 in
  let h4 = h4 land mask26 and h5 = h5 + c in
  let c = h1 lsr 25 in
  let h1 = h1 land mask25 and h2 = h2 + c in
  let c = h5 lsr 25 in
  let h5 = h5 land mask25 and h6 = h6 + c in
  let c = h2 lsr 26 in
  let h2 = h2 land mask26 and h3 = h3 + c in
  let c = h6 lsr 26 in
  let h6 = h6 land mask26 and h7 = h7 + c in
  let c = h3 lsr 25 in
  let h3 = h3 land mask25 and h4 = h4 + c in
  let c = h7 lsr 25 in
  let h7 = h7 land mask25 and h8 = h8 + c in
  let c = h4 lsr 26 in
  let h4 = h4 land mask26 and h5 = h5 + c in
  let c = h8 lsr 26 in
  let h8 = h8 land mask26 and h9 = h9 + c in
  let c = h9 lsr 25 in
  let h9 = h9 land mask25 and h0 = h0 + (19 * c) in
  let c = h0 lsr 26 in
  let h0 = h0 land mask26 and h1 = h1 + c in
  set r 0 h0;
  set r 1 h1;
  set r 2 h2;
  set r 3 h3;
  set r 4 h4;
  set r 5 h5;
  set r 6 h6;
  set r 7 h7;
  set r 8 h8;
  set r 9 h9

(* ------------------------------------------------------------------ *)
(* In-place operations. The destination may alias either operand:     *)
(* every limb is read before the first store.                         *)
(* ------------------------------------------------------------------ *)

let add_to (r : t) (a : t) (b : t) : unit =
  carry_to r
    (get a 0 + get b 0)
    (get a 1 + get b 1)
    (get a 2 + get b 2)
    (get a 3 + get b 3)
    (get a 4 + get b 4)
    (get a 5 + get b 5)
    (get a 6 + get b 6)
    (get a 7 + get b 7)
    (get a 8 + get b 8)
    (get a 9 + get b 9)

(* 2p, limb by limb. *)
let two_p0 = (1 lsl 27) - 38
let two_p_even = (1 lsl 27) - 2
let two_p_odd = (1 lsl 26) - 2

let sub_to (r : t) (a : t) (b : t) : unit =
  carry_to r
    (get a 0 + two_p0 - get b 0)
    (get a 1 + two_p_odd - get b 1)
    (get a 2 + two_p_even - get b 2)
    (get a 3 + two_p_odd - get b 3)
    (get a 4 + two_p_even - get b 4)
    (get a 5 + two_p_odd - get b 5)
    (get a 6 + two_p_even - get b 6)
    (get a 7 + two_p_odd - get b 7)
    (get a 8 + two_p_even - get b 8)
    (get a 9 + two_p_odd - get b 9)

let neg_to (r : t) (a : t) : unit =
  carry_to r (two_p0 - get a 0) (two_p_odd - get a 1) (two_p_even - get a 2)
    (two_p_odd - get a 3) (two_p_even - get a 4) (two_p_odd - get a 5)
    (two_p_even - get a 6) (two_p_odd - get a 7) (two_p_even - get a 8)
    (two_p_odd - get a 9)

let mul_to (r : t) (f : t) (g : t) : unit =
  let f0 = get f 0 and f1 = get f 1 and f2 = get f 2 and f3 = get f 3 and f4 = get f 4 in
  let f5 = get f 5 and f6 = get f 6 and f7 = get f 7 and f8 = get f 8 and f9 = get f 9 in
  let g0 = get g 0 and g1 = get g 1 and g2 = get g 2 and g3 = get g 3 and g4 = get g 4 in
  let g5 = get g 5 and g6 = get g 6 and g7 = get g 7 and g8 = get g 8 and g9 = get g 9 in
  let g1_19 = 19 * g1 and g2_19 = 19 * g2 and g3_19 = 19 * g3 and g4_19 = 19 * g4 in
  let g5_19 = 19 * g5 and g6_19 = 19 * g6 and g7_19 = 19 * g7 and g8_19 = 19 * g8 in
  let g9_19 = 19 * g9 in
  let f1_2 = 2 * f1 and f3_2 = 2 * f3 and f5_2 = 2 * f5 and f7_2 = 2 * f7 and f9_2 = 2 * f9 in
  let h0 =
    (f0 * g0) + (f1_2 * g9_19) + (f2 * g8_19) + (f3_2 * g7_19) + (f4 * g6_19)
    + (f5_2 * g5_19) + (f6 * g4_19) + (f7_2 * g3_19) + (f8 * g2_19) + (f9_2 * g1_19)
  in
  let h1 =
    (f0 * g1) + (f1 * g0) + (f2 * g9_19) + (f3 * g8_19) + (f4 * g7_19) + (f5 * g6_19)
    + (f6 * g5_19) + (f7 * g4_19) + (f8 * g3_19) + (f9 * g2_19)
  in
  let h2 =
    (f0 * g2) + (f1_2 * g1) + (f2 * g0) + (f3_2 * g9_19) + (f4 * g8_19) + (f5_2 * g7_19)
    + (f6 * g6_19) + (f7_2 * g5_19) + (f8 * g4_19) + (f9_2 * g3_19)
  in
  let h3 =
    (f0 * g3) + (f1 * g2) + (f2 * g1) + (f3 * g0) + (f4 * g9_19) + (f5 * g8_19)
    + (f6 * g7_19) + (f7 * g6_19) + (f8 * g5_19) + (f9 * g4_19)
  in
  let h4 =
    (f0 * g4) + (f1_2 * g3) + (f2 * g2) + (f3_2 * g1) + (f4 * g0) + (f5_2 * g9_19)
    + (f6 * g8_19) + (f7_2 * g7_19) + (f8 * g6_19) + (f9_2 * g5_19)
  in
  let h5 =
    (f0 * g5) + (f1 * g4) + (f2 * g3) + (f3 * g2) + (f4 * g1) + (f5 * g0) + (f6 * g9_19)
    + (f7 * g8_19) + (f8 * g7_19) + (f9 * g6_19)
  in
  let h6 =
    (f0 * g6) + (f1_2 * g5) + (f2 * g4) + (f3_2 * g3) + (f4 * g2) + (f5_2 * g1) + (f6 * g0)
    + (f7_2 * g9_19) + (f8 * g8_19) + (f9_2 * g7_19)
  in
  let h7 =
    (f0 * g7) + (f1 * g6) + (f2 * g5) + (f3 * g4) + (f4 * g3) + (f5 * g2) + (f6 * g1)
    + (f7 * g0) + (f8 * g9_19) + (f9 * g8_19)
  in
  let h8 =
    (f0 * g8) + (f1_2 * g7) + (f2 * g6) + (f3_2 * g5) + (f4 * g4) + (f5_2 * g3) + (f6 * g2)
    + (f7_2 * g1) + (f8 * g0) + (f9_2 * g9_19)
  in
  let h9 =
    (f0 * g9) + (f1 * g8) + (f2 * g7) + (f3 * g6) + (f4 * g5) + (f5 * g4) + (f6 * g3)
    + (f7 * g2) + (f8 * g1) + (f9 * g0)
  in
  carry_to r h0 h1 h2 h3 h4 h5 h6 h7 h8 h9

(* Squaring: the symmetric half of the product, with each cross term
   doubled once (55 limb products instead of 100). Same columns as
   [mul_to r f f], so the same bounds. *)
let sqr_to (r : t) (f : t) : unit =
  let f0 = get f 0 and f1 = get f 1 and f2 = get f 2 and f3 = get f 3 and f4 = get f 4 in
  let f5 = get f 5 and f6 = get f 6 and f7 = get f 7 and f8 = get f 8 and f9 = get f 9 in
  let f0_2 = 2 * f0 and f1_2 = 2 * f1 and f2_2 = 2 * f2 and f3_2 = 2 * f3 in
  let f4_2 = 2 * f4 and f5_2 = 2 * f5 and f6_2 = 2 * f6 and f7_2 = 2 * f7 in
  let f5_38 = 38 * f5 and f6_19 = 19 * f6 and f7_38 = 38 * f7 in
  let f8_19 = 19 * f8 and f9_38 = 38 * f9 in
  let h0 =
    (f0 * f0) + (f1_2 * f9_38) + (f2_2 * f8_19) + (f3_2 * f7_38) + (f4_2 * f6_19)
    + (f5 * f5_38)
  in
  let h1 = (f0_2 * f1) + (f2 * f9_38) + (f3_2 * f8_19) + (f4 * f7_38) + (f5_2 * f6_19) in
  let h2 =
    (f0_2 * f2) + (f1_2 * f1) + (f3_2 * f9_38) + (f4_2 * f8_19) + (f5_2 * f7_38)
    + (f6 * f6_19)
  in
  let h3 = (f0_2 * f3) + (f1_2 * f2) + (f4 * f9_38) + (f5_2 * f8_19) + (f6 * f7_38) in
  let h4 =
    (f0_2 * f4) + (f1_2 * f3_2) + (f2 * f2) + (f5_2 * f9_38) + (f6_2 * f8_19) + (f7 * f7_38)
  in
  let h5 = (f0_2 * f5) + (f1_2 * f4) + (f2_2 * f3) + (f6 * f9_38) + (f7_2 * f8_19) in
  let h6 =
    (f0_2 * f6) + (f1_2 * f5_2) + (f2_2 * f4) + (f3_2 * f3) + (f7_2 * f9_38) + (f8 * f8_19)
  in
  let h7 = (f0_2 * f7) + (f1_2 * f6) + (f2_2 * f5) + (f3_2 * f4) + (f8 * f9_38) in
  let h8 =
    (f0_2 * f8) + (f1_2 * f7_2) + (f2_2 * f6) + (f3_2 * f5_2) + (f4 * f4) + (f9 * f9_38)
  in
  let h9 = (f0_2 * f9) + (f1_2 * f8) + (f2_2 * f7) + (f3_2 * f6) + (f4_2 * f5) in
  carry_to r h0 h1 h2 h3 h4 h5 h6 h7 h8 h9

(* Functional forms: each allocates only its result. *)
let add a b = let r = create () in add_to r a b; r
let sub a b = let r = create () in sub_to r a b; r
let neg a = let r = create () in neg_to r a; r
let mul a b = let r = create () in mul_to r a b; r
let sqr a = let r = create () in sqr_to r a; r

(* ------------------------------------------------------------------ *)
(* Observation: full reduction to the canonical representative.       *)
(* ------------------------------------------------------------------ *)

(* Limbs exactly [width i] bits and value < p. Two sequential carry
   passes with the 2^255 fold bring any weakly reduced value below
   2^255 with exact limbs; it is then >= p exactly when value + 19
   reaches 2^255, and subtracting p is adding 19 and dropping bit 255. *)
let canonical (a : t) : t =
  let h = Array.copy a in
  let carry_up () =
    for i = 0 to limbs - 2 do
      let c = h.(i) lsr width i in
      h.(i) <- h.(i) land ((1 lsl width i) - 1);
      h.(i + 1) <- h.(i + 1) + c
    done
  in
  for _ = 1 to 2 do
    carry_up ();
    let c = h.(9) lsr 25 in
    h.(9) <- h.(9) land mask25;
    h.(0) <- h.(0) + (19 * c)
  done;
  let q = ref 19 in
  for i = 0 to limbs - 1 do
    q := (h.(i) + !q) lsr width i
  done;
  h.(0) <- h.(0) + (19 * !q);
  carry_up ();
  h.(9) <- h.(9) land mask25;
  h

let equal (a : t) (b : t) : bool = canonical a = canonical b
let is_zero (a : t) : bool = Array.for_all (fun l -> l = 0) (canonical a)
let parity (a : t) : int = (canonical a).(0) land 1

(* ------------------------------------------------------------------ *)
(* Conversions.                                                        *)
(* ------------------------------------------------------------------ *)

let offset i = (26 * i) - (i / 2)

(* Folds bits 255 and up back in as 19 (no division) until the value
   fits in 255 bits; its limbs are then exact, which the invariant
   allows even when the value is at least p. *)
let of_nat (n : Nat.t) : t =
  let n = ref n in
  while Nat.bit_length !n > 255 do
    n := Nat.add (Nat.low_bits !n 255) (Nat.mul_int (Nat.shift_right !n 255) 19)
  done;
  let n = !n in
  Array.init limbs (fun i ->
      match Nat.to_int_opt (Nat.low_bits (Nat.shift_right n (offset i)) (width i)) with
      | Some v -> v
      | None -> assert false)

let to_nat (a : t) : Nat.t =
  let h = canonical a in
  let r = ref Nat.zero in
  for i = limbs - 1 downto 0 do
    r := Nat.add (Nat.shift_left !r (width i)) (Nat.of_int h.(i))
  done;
  !r

let of_int (x : int) : t = of_nat (Nat.of_int x)

let of_limbs (l : int array) : t =
  if Array.length l <> limbs then invalid_arg "Fe25519.of_limbs: length";
  Array.iteri
    (fun i v -> if v < 0 || v >= limb_bound i then invalid_arg "Fe25519.of_limbs: bound")
    l;
  Array.copy l

let to_limbs : t -> int array = Array.copy

(* ------------------------------------------------------------------ *)
(* Inversion, square roots and batched inversion.                      *)
(* ------------------------------------------------------------------ *)

(* Fermat inversion by addition chain: 254 squarings + 11 multiplies. *)
let inv (a : t) : t = Addchain.pow_p_minus_2 ~mul ~sqr a

(* sqrt(-1) = 2^((p-1)/4); (p-1)/4 = 2^253 - 5 = 2*(2^252 - 3) + 1,
   so it falls out of the shared chain: (2^(2^252-3))^2 * 2. *)
let sqrt_m1 : t =
  let two = of_int 2 in
  mul (sqr (Addchain.pow_2_252_minus_3 ~mul ~sqr two)) two

(* x with v * x^2 = u, if one exists: the combined Ed25519 decompression
   trick x = u * v^3 * (u * v^7)^((p-5)/8), patched by sqrt(-1) when the
   candidate squares to -u/v. One addition chain, no inversion. *)
let sqrt_ratio ~(u : t) ~(v : t) : t option =
  let v3 = mul (sqr v) v in
  let v7 = mul (sqr v3) v in
  let x = mul (mul u v3) (Addchain.pow_2_252_minus_3 ~mul ~sqr (mul u v7)) in
  let check = mul v (sqr x) in
  if equal check u then Some x
  else if equal check (neg u) then Some (mul x sqrt_m1)
  else None

(* All inverses with a single field inversion (Montgomery's trick):
   prefix products, one [inv], then walk back. Zero entries are mapped
   to zero (matching [neg]'s treatment of the non-invertible element). *)
let inv_many (xs : t array) : t array =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let scratch = Array.make n (one ()) in
    let acc = ref (one ()) in
    let nonzero = Array.map (fun x -> not (is_zero x)) xs in
    for i = 0 to n - 1 do
      scratch.(i) <- !acc;
      if nonzero.(i) then acc := mul !acc xs.(i)
    done;
    let inv_acc = ref (inv !acc) in
    let out = Array.make n (zero ()) in
    for i = n - 1 downto 0 do
      if nonzero.(i) then begin
        out.(i) <- mul !inv_acc scratch.(i);
        inv_acc := mul !inv_acc xs.(i)
      end
    done;
    out
  end
