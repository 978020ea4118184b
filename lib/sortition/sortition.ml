(* Cryptographic sortition: Algorithms 1 and 2 of the paper.

   A user with weight w (currency units) out of a total W is selected
   for an expected-size-tau role by evaluating a VRF on seed||role and
   mapping the pseudo-random hash fraction through the binomial CDF of
   B(.; w, tau/W). The returned j is the number of selected sub-users;
   j = 0 means not selected. Splitting weight across Sybils does not
   change the distribution of the total selected count (binomial
   additivity), which is the Sybil-resistance argument of section 5.1. *)

open Algorand_crypto

type selection = {
  vrf_hash : string;  (** VRF output; doubles as the priority source (section 6). *)
  vrf_proof : string;
  j : int;  (** Number of selected sub-users; 0 = not selected. *)
}

(* The hash fraction hash/2^hashlen, read from the hash's first 7 bytes:
   their 56-bit big-endian value v, rounded once to a double (which
   keeps 53 bits), times 2^-56. Selection events with probability below
   2^-53 are rounded away, far below every threshold the protocol
   uses. *)
let[@inline] prefix_fraction (v : int) : float = float_of_int v *. 0x1p-56

(* The least v in [0, 2^56] with [prefix_fraction v >= x]. The fraction
   is monotone in v, so [prefix_fraction v < x] iff [v < prefix_cutoff x]:
   a sweep can test a threshold on the integer prefix, exactly. *)
let prefix_cutoff (x : float) : int =
  let rec search lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if prefix_fraction mid >= x then search lo mid else search (mid + 1) hi
    end
  in
  search 0 (1 lsl 56)

let hash_fraction (hash : string) : float =
  let n = min 7 (String.length hash) in
  let v = ref 0 in
  for i = 0 to n - 1 do
    v := (!v lsl 8) lor Char.code hash.[i]
  done;
  (* A hash shorter than 7 bytes reads as if zero-padded. *)
  prefix_fraction (!v lsl (8 * (7 - n)))

let vrf_input ~(seed : string) ~(role : string) : string = seed ^ "|" ^ role

(* Algorithm 1. *)
let select ~(prover : Vrf.prover) ~(seed : string) ~(tau : float) ~(role : string)
    ~(w : int) ~(total_weight : int) : selection =
  if w < 0 || total_weight <= 0 || w > total_weight then
    invalid_arg "Sortition.select: bad weights";
  let vrf_hash, vrf_proof = prover.prove (vrf_input ~seed ~role) in
  let p = tau /. float_of_int total_weight in
  let j = Binomial.select_j ~frac:(hash_fraction vrf_hash) ~w ~p in
  { vrf_hash; vrf_proof; j }

(* Algorithm 2: returns j (0 if the proof is invalid or not selected). *)
let verify ~(scheme : Vrf.scheme) ~(pk : string) ~(vrf_hash : string)
    ~(vrf_proof : string) ~(seed : string) ~(tau : float) ~(role : string) ~(w : int)
    ~(total_weight : int) : int =
  if w < 0 || total_weight <= 0 || w > total_weight then 0
  else begin
    match scheme.verify ~pk ~input:(vrf_input ~seed ~role) ~proof:vrf_proof with
    | None -> 0
    | Some h when not (String.equal h vrf_hash) -> 0
    | Some _ ->
      let p = tau /. float_of_int total_weight in
      Binomial.select_j ~frac:(hash_fraction vrf_hash) ~w ~p
  end

(* Block-proposal priority (section 6): the priority of sub-user [index]
   is H(vrf_hash || index); a proposer's priority is the highest over
   its selected sub-users. Higher byte-string compares win; we compare
   hashes lexicographically. *)
let sub_user_priority ~(vrf_hash : string) ~(index : int) : string =
  Sha256.digest_concat [ vrf_hash; string_of_int index ]

let best_priority ~(vrf_hash : string) ~(j : int) : string option =
  if j <= 0 then None
  else begin
    let best = ref (sub_user_priority ~vrf_hash ~index:1) in
    for index = 2 to j do
      let p = sub_user_priority ~vrf_hash ~index in
      if String.compare p !best > 0 then best := p
    done;
    Some !best
  end
