(* The fixed-limb field vs the generic Nat oracle: every operation is
   cross-checked on random field elements. *)

open Algorand_crypto

let t name f = Alcotest.test_case name `Quick f
let qt ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let p = Ed25519.Fp.p

(* Random field elements via hashing an integer seed. *)
let gen_fe : Nat.t QCheck2.Gen.t =
  QCheck2.Gen.(
    map
      (fun (i, full) ->
        let n = Nat.of_bytes_le (Sha256.digest (string_of_int i)) in
        if full then Nat.rem n p
        else Nat.of_int (abs i land 0xFFFF) (* small values hit carry edges *))
      (pair int bool))

let to_fe = Fe25519.of_nat
let eq_nat msg a b = Alcotest.(check string) msg (Nat.to_decimal a) (Nat.to_decimal b)

let roundtrip () =
  List.iter
    (fun n ->
      let v = Nat.rem n p in
      eq_nat "roundtrip" v (Fe25519.to_nat (to_fe v)))
    [
      Nat.zero;
      Nat.one;
      Nat.of_int 123456789;
      Nat.sub p Nat.one;
      Nat.sub p (Nat.of_int 19);
      Nat.shift_left Nat.one 254;
    ];
  (* of_nat reduces mod p. *)
  eq_nat "reduces" Nat.one (Fe25519.to_nat (to_fe (Nat.add p Nat.one)))

let constants () =
  eq_nat "zero" Nat.zero (Fe25519.to_nat (Fe25519.zero ()));
  eq_nat "one" Nat.one (Fe25519.to_nat (Fe25519.one ()));
  eq_nat "of_int" (Nat.of_int 121665) (Fe25519.to_nat (Fe25519.of_int 121665));
  Alcotest.(check bool) "is_zero" true (Fe25519.is_zero (Fe25519.zero ()));
  Alcotest.(check bool) "one not zero" false (Fe25519.is_zero (Fe25519.one ()))

let edge_values () =
  (* p-1 squared, (p-1) + 1 = 0, etc. *)
  let pm1 = to_fe (Nat.sub p Nat.one) in
  eq_nat "(p-1)+1 = 0" Nat.zero (Fe25519.to_nat (Fe25519.add pm1 (Fe25519.one ())));
  eq_nat "(p-1)^2 = 1" Nat.one (Fe25519.to_nat (Fe25519.sqr pm1));
  eq_nat "0 - 1 = p-1" (Nat.sub p Nat.one)
    (Fe25519.to_nat (Fe25519.sub (Fe25519.zero ()) (Fe25519.one ())));
  eq_nat "neg 0 = 0" Nat.zero (Fe25519.to_nat (Fe25519.neg (Fe25519.zero ())))

let inversion_and_pow () =
  let x = to_fe (Nat.of_int 987654321) in
  eq_nat "x * x^-1 = 1" Nat.one (Fe25519.to_nat (Fe25519.mul x (Fe25519.inv x)));
  (* Fermat via pow. *)
  let y = to_fe (Nat.of_int 31337) in
  eq_nat "y^(p-1) = 1" Nat.one (Fe25519.to_nat (Oracles.fe_pow y (Nat.sub p Nat.one)))

let sqrt_m1_and_parity () =
  (* sqrt(-1)^2 = -1, and parity is the canonical low bit. *)
  let m1 = Fe25519.neg (Fe25519.one ()) in
  Alcotest.(check bool) "sqrt_m1^2 = -1" true
    (Fe25519.equal (Fe25519.sqr Fe25519.sqrt_m1) m1);
  Alcotest.(check int) "parity 0" 0 (Fe25519.parity (Fe25519.zero ()));
  Alcotest.(check int) "parity 1" 1 (Fe25519.parity (Fe25519.one ()));
  Alcotest.(check int) "parity p-1" 0 (Fe25519.parity (to_fe (Nat.sub p Nat.one)))

let sqrt_ratio_cases () =
  (* For random u, v: either a root of u/v exists and checks, or
     u * v^-1 is a non-residue (cross-checked against Fp.sqrt). *)
  let d = ref 0 in
  for k = 1 to 200 do
    let u = Nat.rem (Nat.of_bytes_le (Sha256.digest ("sru" ^ string_of_int k))) p in
    let v = Nat.rem (Nat.of_bytes_le (Sha256.digest ("srv" ^ string_of_int k))) p in
    if not (Nat.is_zero v) then begin
      let fu = to_fe u and fv = to_fe v in
      match Fe25519.sqrt_ratio ~u:fu ~v:fv with
      | Some x ->
        incr d;
        Alcotest.(check bool) "v*x^2 = u" true
          (Fe25519.equal (Fe25519.mul fv (Fe25519.sqr x)) fu)
      | None ->
        let ratio = Ed25519.Fp.mul u (Ed25519.Fp.inv v) in
        Alcotest.(check bool) "oracle agrees: no root" true
          (Ed25519.Fp.sqrt ratio = None)
    end
  done;
  (* About half the ratios are residues. *)
  Alcotest.(check bool) "some roots found" true (!d > 60 && !d < 140);
  (* u = 0 has the root 0. *)
  match Fe25519.sqrt_ratio ~u:(Fe25519.zero ()) ~v:(Fe25519.one ()) with
  | Some x -> Alcotest.(check bool) "sqrt(0) = 0" true (Fe25519.is_zero x)
  | None -> Alcotest.fail "sqrt_ratio 0/1 must exist"

let inv_many_matches () =
  let xs =
    Array.init 23 (fun i ->
        if i mod 7 = 3 then Fe25519.zero ()
        else to_fe (Nat.of_bytes_le (Sha256.digest ("invm" ^ string_of_int i))))
  in
  let invs = Fe25519.inv_many xs in
  Array.iteri
    (fun i x ->
      if Fe25519.is_zero x then
        Alcotest.(check bool) "zero maps to zero" true (Fe25519.is_zero invs.(i))
      else
        Alcotest.(check bool) "matches inv" true (Fe25519.equal invs.(i) (Fe25519.inv x)))
    xs;
  Alcotest.(check int) "empty" 0 (Array.length (Fe25519.inv_many [||]))

(* ------------------------------------------------------------------ *)
(* The weakly reduced invariant: no operation canonicalizes, so values *)
(* are checked against the oracle only where they are observed.        *)
(* ------------------------------------------------------------------ *)

let within_bounds (a : Fe25519.t) : bool =
  let l = Fe25519.to_limbs a in
  Array.length l = 10
  && Array.for_all Fun.id (Array.mapi (fun i v -> v >= 0 && v < Fe25519.limb_bound i) l)

(* The value a limb vector stands for, reduced or not. *)
let nat_of_limbs (l : int array) : Nat.t =
  let r = ref Nat.zero in
  for i = 9 downto 0 do
    r := Nat.add (Nat.shift_left !r (if i land 1 = 0 then 26 else 25)) (Nat.of_int l.(i))
  done;
  !r

let max_limbs = Array.init 10 (fun i -> Fe25519.limb_bound i - 1)
let fe_max () = Fe25519.of_limbs max_limbs

(* Random chains of mixed operations, never observed in between. Each
   step draws an operation and an operand from the running values;
   every intermediate must stay within the limb bounds, and the final
   values must match the Nat oracle run on the same program. *)
let chains () =
  let d = Drbg.create ~seed:"fe25519-chains" in
  for chain = 1 to 40 do
    let start =
      List.init 4 (fun k ->
          if k = 0 && chain mod 4 = 0 then (fe_max (), Nat.rem (nat_of_limbs max_limbs) p)
          else begin
            let n = Nat.rem (Nat.of_bytes_le (Drbg.random_bytes d 32)) p in
            (to_fe n, n)
          end)
    in
    let vals = Array.of_list start in
    for _ = 1 to 250 do
      let pick () = vals.(Drbg.random_int d (Array.length vals)) in
      let (a, an), (b, bn) = (pick (), pick ()) in
      let r =
        match Drbg.random_int d 5 with
        | 0 -> (Fe25519.add a b, Ed25519.Fp.add an bn)
        | 1 -> (Fe25519.sub a b, Ed25519.Fp.sub an bn)
        | 2 -> (Fe25519.neg a, Ed25519.Fp.neg an)
        | 3 -> (Fe25519.mul a b, Ed25519.Fp.mul an bn)
        | _ -> (Fe25519.sqr a, Ed25519.Fp.sqr an)
      in
      if not (within_bounds (fst r)) then Alcotest.fail "limb bound broken mid-chain";
      vals.(Drbg.random_int d (Array.length vals)) <- r
    done;
    Array.iter (fun (v, n) -> eq_nat "chain end matches oracle" n (Fe25519.to_nat v)) vals
  done

(* The bounds in fe25519.ml are worst cases at these inputs: every limb
   at its maximum, through every operation. *)
let max_limb_inputs () =
  let m = fe_max () in
  let mn = Nat.rem (nat_of_limbs max_limbs) p in
  let one = Fe25519.one () in
  let cases =
    [
      ("mul", Fe25519.mul m m, Ed25519.Fp.mul mn mn);
      ("sqr", Fe25519.sqr m, Ed25519.Fp.sqr mn);
      ("add", Fe25519.add m m, Ed25519.Fp.add mn mn);
      ("sub max-max", Fe25519.sub m m, Nat.zero);
      ("sub 1-max", Fe25519.sub one m, Ed25519.Fp.sub Nat.one mn);
      ("neg", Fe25519.neg m, Ed25519.Fp.neg mn);
    ]
  in
  List.iter
    (fun (name, v, expect) ->
      Alcotest.(check bool) (name ^ " within bounds") true (within_bounds v);
      eq_nat name expect (Fe25519.to_nat v))
    cases;
  (* In place, with the destination aliasing both operands. *)
  let r = fe_max () in
  Fe25519.mul_to r r r;
  eq_nat "mul_to aliased" (Ed25519.Fp.mul mn mn) (Fe25519.to_nat r);
  Alcotest.check_raises "of_limbs rejects a limb at its bound"
    (Invalid_argument "Fe25519.of_limbs: bound") (fun () ->
      ignore (Fe25519.of_limbs (Array.mapi (fun i v -> if i = 3 then v + 1 else v) max_limbs)))

(* Values at or above p that the invariant allows: observation must see
   the residue, not the limbs. (2p - 1 lies above the largest value the
   limb bounds allow, 2^255 + 2^243 or so, so no operation produces it.) *)
let non_canonical () =
  let p_limbs =
    Array.init 10 (fun i ->
        if i = 0 then (1 lsl 26) - 19 else if i land 1 = 0 then (1 lsl 26) - 1 else (1 lsl 25) - 1)
  in
  eq_nat "p limbs" p (nat_of_limbs p_limbs);
  let with_low k = Fe25519.of_limbs (Array.mapi (fun i v -> if i = 0 then v + k else v) p_limbs) in
  let fp = with_low 0 and fp1 = with_low 1 and fpm1 = with_low (-1) in
  let zero = Fe25519.zero () and one = Fe25519.one () in
  Alcotest.(check bool) "p is zero" true (Fe25519.is_zero fp);
  Alcotest.(check bool) "p equals 0" true (Fe25519.equal fp zero);
  Alcotest.(check bool) "0 equals p" true (Fe25519.equal zero fp);
  Alcotest.(check int) "parity p (odd low limb)" 0 (Fe25519.parity fp);
  eq_nat "to_nat p" Nat.zero (Fe25519.to_nat fp);
  Alcotest.(check bool) "p + 1 equals 1" true (Fe25519.equal fp1 one);
  Alcotest.(check bool) "p + 1 not zero" false (Fe25519.is_zero fp1);
  Alcotest.(check int) "parity p + 1 (even low limb)" 1 (Fe25519.parity fp1);
  Alcotest.(check bool) "p - 1 is canonical" true (Fe25519.equal fpm1 (Fe25519.neg one));
  Alcotest.(check int) "parity p - 1" 0 (Fe25519.parity fpm1);
  Alcotest.(check bool) "p - 1 not zero" false (Fe25519.is_zero fpm1);
  let m = fe_max () in
  let mn = Nat.rem (nat_of_limbs max_limbs) p in
  Alcotest.(check bool) "max above p" true (Nat.compare (nat_of_limbs max_limbs) p > 0);
  eq_nat "max reduces" mn (Fe25519.to_nat m);
  Alcotest.(check int) "parity max" (if Nat.testbit mn 0 then 1 else 0) (Fe25519.parity m);
  Alcotest.(check bool) "max equals its residue" true (Fe25519.equal m (to_fe mn))

(* Minor-heap words one call allocates, averaged over many calls. *)
let words_per_call ?(n = 1000) f =
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let allocation () =
  let a = to_fe (Nat.of_int 123456789) and b = fe_max () in
  let r = Fe25519.create () in
  let result_words = 11.0 (* ten limbs and a header *) in
  List.iter
    (fun (name, f) ->
      let w = words_per_call f in
      if w > result_words +. 0.1 then Alcotest.failf "%s allocates %.1f words" name w)
    [
      ("add", fun () -> Fe25519.add a b);
      ("sub", fun () -> Fe25519.sub a b);
      ("neg", fun () -> Fe25519.neg a);
      ("mul", fun () -> Fe25519.mul a b);
      ("sqr", fun () -> Fe25519.sqr a);
    ];
  List.iter
    (fun (name, f) ->
      let w = words_per_call f in
      if w > 0.1 then Alcotest.failf "%s allocates %.1f words" name w)
    [
      ("add_to", fun () -> Fe25519.add_to r a b);
      ("sub_to", fun () -> Fe25519.sub_to r a b);
      ("neg_to", fun () -> Fe25519.neg_to r a);
      ("mul_to", fun () -> Fe25519.mul_to r a b);
      ("sqr_to", fun () -> Fe25519.sqr_to r a);
    ];
  (* One verification allocated ~218k words with the canonicalizing
     kernel; the weakly reduced, in-place one must stay under a quarter. *)
  let sk = Ed25519.generate ~seed:"alloc" in
  let public = Ed25519.public_key sk and msg = String.make 1024 'x' in
  let signature = Ed25519.sign sk msg in
  let w =
    words_per_call ~n:20 (fun () ->
        if not (Ed25519.verify ~public ~msg ~signature) then Alcotest.fail "verify")
  in
  if w > 218_000.0 /. 4.0 then Alcotest.failf "Ed25519.verify allocates %.0f words" w

let suite =
  [
    ( "fe25519",
      [
        t "nat roundtrip" roundtrip;
        t "sqrt_m1 and parity" sqrt_m1_and_parity;
        t "sqrt_ratio" sqrt_ratio_cases;
        t "inv_many" inv_many_matches;
        t "constants" constants;
        t "edge values" edge_values;
        t "inversion and pow" inversion_and_pow;
        qt "add matches oracle" QCheck2.Gen.(pair gen_fe gen_fe) (fun (a, b) ->
            Nat.equal
              (Fe25519.to_nat (Fe25519.add (to_fe a) (to_fe b)))
              (Ed25519.Fp.add a b));
        qt "sub matches oracle" QCheck2.Gen.(pair gen_fe gen_fe) (fun (a, b) ->
            Nat.equal
              (Fe25519.to_nat (Fe25519.sub (to_fe a) (to_fe b)))
              (Ed25519.Fp.sub (Nat.rem a p) (Nat.rem b p)));
        qt "mul matches oracle" QCheck2.Gen.(pair gen_fe gen_fe) (fun (a, b) ->
            Nat.equal
              (Fe25519.to_nat (Fe25519.mul (to_fe a) (to_fe b)))
              (Ed25519.Fp.mul a b));
        qt "sqr matches mul" gen_fe (fun a ->
            Fe25519.equal (Fe25519.sqr (to_fe a)) (Fe25519.mul (to_fe a) (to_fe a)));
        qt "neg matches oracle" gen_fe (fun a ->
            Nat.equal (Fe25519.to_nat (Fe25519.neg (to_fe a))) (Ed25519.Fp.neg (Nat.rem a p)));
        qt "inv matches oracle" gen_fe (fun a ->
            Nat.is_zero (Nat.rem a p)
            || Nat.equal (Fe25519.to_nat (Fe25519.inv (to_fe a))) (Ed25519.Fp.inv a));
        t "mixed chains, never canonicalized" chains;
        t "every limb at its maximum" max_limb_inputs;
        t "non-canonical representatives" non_canonical;
        t "allocation" allocation;
        qt "distributivity" QCheck2.Gen.(triple gen_fe gen_fe gen_fe) (fun (a, b, c) ->
            let a = to_fe a and b = to_fe b and c = to_fe c in
            Fe25519.equal
              (Fe25519.mul a (Fe25519.add b c))
              (Fe25519.add (Fe25519.mul a b) (Fe25519.mul a c)));
      ] );
  ]
