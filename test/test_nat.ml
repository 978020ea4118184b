(* Unit and property tests for the arbitrary-precision naturals. *)

open Algorand_crypto

let check_eq msg a b = Alcotest.(check string) msg (Nat.to_decimal a) (Nat.to_decimal b)

let t name f = Alcotest.test_case name `Quick f
let qt ?(count = 500) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Random naturals as decimal strings up to ~40 digits. *)
let gen_nat : Nat.t QCheck2.Gen.t =
  QCheck2.Gen.(
    map
      (fun digits ->
        let s = String.concat "" (List.map string_of_int digits) in
        Nat.of_decimal (if s = "" then "0" else s))
      (list_size (int_range 0 40) (int_range 0 9)))

let gen_small = QCheck2.Gen.(map Nat.of_int (int_range 0 1_000_000))

(* Naturals of up to 25 limbs built from limb values that stress long
   division: 0, 1, 2^25 - 1, 2^25, 2^26 - 1 and random limbs. Such
   divisors reach the quotient correction and the add-back step. *)
let gen_limby : Nat.t QCheck2.Gen.t =
  QCheck2.Gen.(
    map
      (List.fold_left (fun acc l -> Nat.add (Nat.shift_left acc 26) (Nat.of_int l)) Nat.zero)
      (list_size (int_range 1 25)
         (oneof
            [
              oneofl [ 0; 1; (1 lsl 25) - 1; 1 lsl 25; (1 lsl 26) - 1 ];
              int_range 0 ((1 lsl 26) - 1);
            ])))

let basics () =
  check_eq "zero" Nat.zero (Nat.of_int 0);
  Alcotest.(check bool) "is_zero" true (Nat.is_zero Nat.zero);
  Alcotest.(check (option int)) "to_int roundtrip" (Some 123456789)
    (Nat.to_int_opt (Nat.of_int 123456789));
  check_eq "decimal roundtrip"
    (Nat.of_decimal "340282366920938463463374607431768211455")
    (Nat.of_decimal "340282366920938463463374607431768211455");
  Alcotest.(check string) "to_decimal" "1000000000000000000000"
    (Nat.to_decimal (Nat.of_decimal "1000000000000000000000"))

let arithmetic () =
  let a = Nat.of_decimal "123456789012345678901234567890" in
  let b = Nat.of_decimal "987654321098765432109876543210" in
  Alcotest.(check string) "add" "1111111110111111111011111111100"
    (Nat.to_decimal (Nat.add a b));
  Alcotest.(check string) "sub" "864197532086419753208641975320"
    (Nat.to_decimal (Nat.sub b a));
  let product = Nat.mul a b in
  check_eq "mul/div consistency" a (Nat.div product b);
  check_eq "mul exact" Nat.zero (Nat.rem product b);
  let q, r = Nat.divmod b a in
  check_eq "divmod reconstruct" b (Nat.add (Nat.mul q a) r);
  Alcotest.(check bool) "r < a" true (Nat.compare r a < 0)

let shifts () =
  let x = Nat.of_decimal "123456789123456789" in
  check_eq "shift roundtrip" x (Nat.shift_right (Nat.shift_left x 67) 67);
  check_eq "shift_left = mul 2^k" (Nat.shift_left x 20)
    (Nat.mul x (Nat.of_int (1 lsl 20)));
  Alcotest.(check int) "bit_length of 2^100" 101
    (Nat.bit_length (Nat.shift_left Nat.one 100));
  Alcotest.(check bool) "testbit" true (Nat.testbit (Nat.shift_left Nat.one 100) 100);
  Alcotest.(check bool) "testbit off" false (Nat.testbit (Nat.shift_left Nat.one 100) 99)

let bytes_roundtrip () =
  let x = Nat.of_decimal "98765432109876543210" in
  check_eq "be roundtrip" x (Nat.of_bytes_be (Nat.to_bytes_be x ~len:32));
  check_eq "le roundtrip" x (Nat.of_bytes_le (Nat.to_bytes_le x ~len:32));
  Alcotest.(check string) "be of 0x0102" "258"
    (Nat.to_decimal (Nat.of_bytes_be "\x01\x02"))

let modular () =
  let p = Nat.of_int 1_000_003 in
  let a = Nat.of_decimal "999999999999999999" in
  let pow = Nat.mod_pow p a (Nat.sub p Nat.one) in
  (* Fermat: a^(p-1) = 1 mod p for prime p and a not divisible by p. *)
  check_eq "fermat little theorem" Nat.one pow;
  let inv = Nat.mod_inv_prime p (Nat.of_int 12345) in
  check_eq "modular inverse" Nat.one (Nat.rem (Nat.mul inv (Nat.of_int 12345)) p)

let low_bits () =
  let x = Nat.of_decimal "123456789123456789123456789" in
  check_eq "low_bits = rem 2^k" (Nat.low_bits x 37)
    (Nat.rem x (Nat.shift_left Nat.one 37))

let error_cases () =
  Alcotest.check_raises "sub underflow" (Invalid_argument "Nat.sub: underflow")
    (fun () -> ignore (Nat.sub Nat.one Nat.two));
  Alcotest.check_raises "negative of_int" (Invalid_argument "Nat.of_int: negative")
    (fun () -> ignore (Nat.of_int (-1)));
  Alcotest.check_raises "to_bytes overflow"
    (Invalid_argument "Nat.to_bytes_be: does not fit") (fun () ->
      ignore (Nat.to_bytes_be (Nat.of_decimal "100000000000") ~len:4));
  (try
     ignore (Nat.divmod Nat.one Nat.zero);
     Alcotest.fail "division by zero accepted"
   with Division_by_zero -> ())

let modular_edges () =
  (* mod 1 is always zero. *)
  check_eq "mod_pow m=1" Nat.zero (Nat.mod_pow Nat.one (Nat.of_int 7) (Nat.of_int 9));
  (* x^0 = 1. *)
  check_eq "x^0" Nat.one (Nat.mod_pow (Nat.of_int 97) (Nat.of_int 12) Nat.zero);
  (* 0^x = 0 for x > 0. *)
  check_eq "0^x" Nat.zero (Nat.mod_pow (Nat.of_int 97) Nat.zero (Nat.of_int 5));
  check_eq "mod_add wraps" (Nat.of_int 1)
    (Nat.mod_add (Nat.of_int 7) (Nat.of_int 4) (Nat.of_int 4));
  check_eq "mod_sub wraps" (Nat.of_int 5)
    (Nat.mod_sub (Nat.of_int 7) (Nat.of_int 2) (Nat.of_int 4))

let shift_edges () =
  check_eq "shift_left 0" (Nat.of_int 5) (Nat.shift_left (Nat.of_int 5) 0);
  check_eq "shift_right everything" Nat.zero (Nat.shift_right (Nat.of_int 5) 100);
  check_eq "low_bits of zero" Nat.zero (Nat.low_bits Nat.zero 13);
  Alcotest.(check int) "bit_length zero" 0 (Nat.bit_length Nat.zero);
  Alcotest.(check bool) "testbit beyond" false (Nat.testbit (Nat.of_int 1) 200)

let suite =
  [
    ( "nat",
      [
        t "basics" basics;
        t "error cases" error_cases;
        t "modular edges" modular_edges;
        t "shift edges" shift_edges;
        t "arithmetic" arithmetic;
        t "shifts" shifts;
        t "bytes roundtrip" bytes_roundtrip;
        t "modular arithmetic" modular;
        t "low_bits" low_bits;
        qt "add commutes" QCheck2.Gen.(pair gen_nat gen_nat) (fun (a, b) ->
            Nat.equal (Nat.add a b) (Nat.add b a));
        qt "add then sub" QCheck2.Gen.(pair gen_nat gen_nat) (fun (a, b) ->
            Nat.equal (Nat.sub (Nat.add a b) b) a);
        qt "mul distributes" QCheck2.Gen.(triple gen_nat gen_nat gen_nat)
          (fun (a, b, c) ->
            Nat.equal (Nat.mul a (Nat.add b c)) (Nat.add (Nat.mul a b) (Nat.mul a c)));
        qt "divmod reconstructs" QCheck2.Gen.(pair gen_nat gen_small) (fun (a, d) ->
            Nat.is_zero d
            ||
            let q, r = Nat.divmod a d in
            Nat.equal a (Nat.add (Nat.mul q d) r) && Nat.compare r d < 0);
        qt ~count:2000 "divmod reconstructs, wide divisors"
          QCheck2.Gen.(pair gen_limby gen_limby) (fun (a, d) ->
            Nat.is_zero d
            ||
            let q, r = Nat.divmod a d in
            Nat.equal a (Nat.add (Nat.mul q d) r) && Nat.compare r d < 0);
        qt "bytes roundtrip, little-endian" gen_limby (fun a ->
            Nat.equal a (Nat.of_bytes_le (Nat.to_bytes_le a ~len:82)));
        qt "decimal roundtrip" gen_nat (fun a ->
            Nat.equal a (Nat.of_decimal (Nat.to_decimal a)));
        qt "bytes roundtrip" gen_nat (fun a ->
            Nat.bit_length a > 8 * 64
            || Nat.equal a (Nat.of_bytes_le (Nat.to_bytes_le a ~len:64)));
        qt "int roundtrip" QCheck2.Gen.(int_range 0 max_int) (fun i ->
            Nat.to_int_opt (Nat.of_int i) = Some i);
      ] );
  ]
