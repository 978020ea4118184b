(* Reference implementations that only the tests use: the slow, obvious
   versions of library paths, kept as behavioural oracles. *)

open Algorand_crypto

(* Square-and-multiply over the fixed-limb field, exponent bits
   least significant first. *)
let fe_pow (base : Fe25519.t) (e : Nat.t) : Fe25519.t =
  let bits = Nat.bits e in
  let result = ref (Fe25519.one ()) in
  let b = ref base in
  let n = Array.length bits in
  for i = 0 to n - 1 do
    if bits.(i) = 1 then result := Fe25519.mul !result !b;
    if i < n - 1 then b := Fe25519.sqr !b
  done;
  !result

(* The pre-engine verifier: naive double-and-add, and no subgroup check
   on the public key - the small-order forgery test relies on that to
   demonstrate the attack [Ed25519.verify] rejects. *)
let ed25519_verify_ref ~(public : string) ~(msg : string) ~(signature : string) : bool =
  String.length signature = Ed25519.signature_length
  &&
  let r_enc = String.sub signature 0 32 in
  let s = Nat.of_bytes_le (String.sub signature 32 32) in
  Nat.compare s Ed25519.order < 0
  &&
  match (Ed25519.decode r_enc, Ed25519.decode public) with
  | Some r, Some a ->
    let e =
      Nat.rem
        (Nat.of_bytes_le (Sha256.digest_concat [ "ed25519-chal"; r_enc; public; msg ]))
        Ed25519.order
    in
    (* s*B = R + e*A *)
    Ed25519.equal_points (Ed25519.scalar_mult s Ed25519.base)
      (Ed25519.add r (Ed25519.scalar_mult e a))
  | _ -> false
