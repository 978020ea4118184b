(* Verifiable random functions (Micali-Rabin-Vadhan), two implementations
   behind one closure-record interface:

   - [ecvrf]: an ECVRF-style construction over the ed25519 curve
     (try-and-increment hash-to-curve, Gamma = sk*H, Fiat-Shamir proof,
     cofactor-cleared output), following the structure of the Goldberg
     et al. VRF cited by the paper (section 9).

   - [sim]: a hash-based stand-in with the same interface and the same
     output distribution but no secrecy (outputs are derivable from the
     public key). The paper itself replaces cryptographic verification
     with sleeps when simulating 500,000 users (section 10.1); [sim]
     plays that role for our large-scale simulations, with verification
     cost modeled by the simulator instead of burned in CPU. *)

type prover = { prove : string -> string * string  (** input -> (hash, proof) *) }

type scheme = {
  name : string;
  generate : seed:string -> prover * string;  (** seed -> (prover, public key) *)
  verify : pk:string -> input:string -> proof:string -> string option;
      (** Returns the VRF hash iff the proof is valid for [pk] and [input]. *)
  proof_length : int;
  output_length : int;
}

(* ------------------------------------------------------------------ *)
(* ECVRF over ed25519.                                                 *)
(* ------------------------------------------------------------------ *)

let hash_to_curve_uncached (input : string) : Ed25519.point =
  let rec attempt ctr =
    if ctr > 255 then failwith "Vrf.hash_to_curve: no point found (probability ~2^-256)"
    else begin
      let candidate =
        Sha256.digest_concat [ "vrf-h2c"; input; String.make 1 (Char.chr ctr) ]
      in
      match Ed25519.decode candidate with
      | Some p ->
        (* Multiply by the cofactor 8 so the point lies in the prime
           subgroup; reject the (negligible) identity outcome. *)
        let p8 = Ed25519.double (Ed25519.double (Ed25519.double p)) in
        if Ed25519.equal_points p8 Ed25519.identity then attempt (ctr + 1) else p8
      | None -> attempt (ctr + 1)
    end
  in
  attempt 0

(* Sortition hashes the same (seed, role) input for every member of a
   committee step, so one try-and-increment run serves a whole step's
   worth of proofs and verifications. Cached alongside the point: its
   encoding (a field inversion) and a fixed-base comb table, which
   turns every s*H / k*H below into ~64 mixed additions with no
   doubling chain. The comb costs ~1000 point operations to build, so
   it is lazy: verification forces it (committee floods repay it ~2000
   times over), while a prove on a cold input — one multiplication per
   scalar, possibly never repeated — sticks to the w-NAF chain. A comb
   is a few hundred KB, so the cache is kept small; bounded, reset on
   overflow. *)
let h2c_cache : (string, Ed25519.point * string * Ed25519.comb Lazy.t) Hashtbl.t =
  Hashtbl.create 64

let h2c_cache_limit = 64

let hash_to_curve_full (input : string) :
    Ed25519.point * string * Ed25519.comb Lazy.t =
  match Hashtbl.find_opt h2c_cache input with
  | Some entry -> entry
  | None ->
    let p = hash_to_curve_uncached input in
    let entry = (p, Ed25519.encode p, lazy (Ed25519.comb_of_point p)) in
    if Hashtbl.length h2c_cache >= h2c_cache_limit then Hashtbl.reset h2c_cache;
    Hashtbl.add h2c_cache input entry;
    entry

let hash_to_curve (input : string) : Ed25519.point =
  let p, _, _ = hash_to_curve_full input in
  p

let challenge ~h_enc ~gamma_enc ~u_enc ~v_enc : Nat.t =
  (* 128-bit Fiat-Shamir challenge. *)
  Nat.low_bits
    (Nat.of_bytes_le (Sha256.digest_concat [ "vrf-chal"; h_enc; gamma_enc; u_enc; v_enc ]))
    128

(* The output hashes 8*Gamma, not Gamma. This is what makes the output
   unique per (pk, input): a malicious prover who knows its own key can
   grind nonces until the challenge c = 0 (mod 8) and then open a valid
   DLEQ proof for Gamma + D with D any 8-torsion point (the verifier's
   V = s*H - c*Gamma' differs from the honest V by c*D = O). Clearing
   the cofactor collapses all eight Gamma variants to one output, so
   the grind buys nothing. Three doublings - essentially free. *)
let cofactor_clear gamma = Ed25519.double (Ed25519.double (Ed25519.double gamma))
let output_of_gamma8_enc gamma8_enc = Sha256.digest_concat [ "vrf-out"; gamma8_enc ]

let ecvrf : scheme =
  let proof_length = 32 + 16 + 32 in
  let generate ~seed =
    let sk = Ed25519.generate ~seed:("vrf-" ^ seed) in
    let pk = Ed25519.public_key sk in
    let a = Ed25519.secret_scalar sk in
    let prove input =
      let h, h_enc, hcomb = hash_to_curve_full input in
      (* Ride the comb only if a verification has already paid for it. *)
      let mult_h k =
        if Lazy.is_val hcomb then Ed25519.scalar_mult_comb (Lazy.force hcomb) k
        else Ed25519.scalar_mult_fast k h
      in
      let gamma = mult_h a in
      let k =
        Nat.add Nat.one
          (Nat.rem
             (Nat.of_bytes_le
                (Sha256.digest_concat [ "vrf-nonce"; Ed25519.secret_seed sk; input ]))
             (Nat.sub Ed25519.order Nat.one))
      in
      (* One shared inversion for all four encodings. *)
      let encs =
        Ed25519.encode_many
          [|
            gamma;
            Ed25519.scalar_mult_base k;
            mult_h k;
            cofactor_clear gamma;
          |]
      in
      let gamma_enc = encs.(0) and u_enc = encs.(1) and v_enc = encs.(2) in
      let c = challenge ~h_enc ~gamma_enc ~u_enc ~v_enc in
      let s = Nat.rem (Nat.add k (Nat.mul c a)) Ed25519.order in
      let proof = gamma_enc ^ Nat.to_bytes_le c ~len:16 ^ Nat.to_bytes_le s ~len:32 in
      (output_of_gamma8_enc encs.(3), proof)
    in
    ({ prove }, pk)
  in
  let verify ~pk ~input ~proof =
    if String.length proof <> proof_length then None
    else begin
      let gamma_enc = String.sub proof 0 32 in
      let c = Nat.of_bytes_le (String.sub proof 32 16) in
      let s = Nat.of_bytes_le (String.sub proof 48 32) in
      if Nat.compare s Ed25519.order >= 0 then None
      else begin
        match (Ed25519.decode gamma_enc, Ed25519.decode_checked pk) with
        | Some gamma, Some a_pt ->
          let _, h_enc, hcomb = hash_to_curve_full input in
          let hcomb = Lazy.force hcomb in
          (* U = s*B - c*A and V = s*H - c*Gamma have the same shape:
             the combs (B's static one, H's cached per input) give the
             s-side with zero doublings, so the only doubling chains
             are c*A's and c*Gamma's - and c is a 128-bit challenge,
             half the length of a Strauss chain over s. *)
          let u =
            Ed25519.add (Ed25519.scalar_mult_base s)
              (Ed25519.scalar_mult_fast c (Ed25519.neg a_pt))
          in
          let v =
            Ed25519.add
              (Ed25519.scalar_mult_comb hcomb s)
              (Ed25519.scalar_mult_fast c (Ed25519.neg gamma))
          in
          (* One shared inversion for the two commitment encodings plus
             the cofactor-cleared output point. *)
          let encs = Ed25519.encode_many [| u; v; cofactor_clear gamma |] in
          let c' = challenge ~h_enc ~gamma_enc ~u_enc:encs.(0) ~v_enc:encs.(1) in
          if Nat.equal c c' then Some (output_of_gamma8_enc encs.(2)) else None
        | _ -> None
      end
    end
  in
  { name = "ecvrf"; generate; verify; proof_length; output_length = 32 }

(* ------------------------------------------------------------------ *)
(* Simulation VRF: distribution-faithful, zero-cost, no secrecy.       *)
(* ------------------------------------------------------------------ *)

(* The sim VRF's output for [input] under [pk] is
   SHA-256(sim_out_tag || pk || input); [Sim_sweep] relies on this
   layout. *)
let sim_out_tag = "simvrf-out"

let sim_output ~pk input = Sha256.digest_concat [ sim_out_tag; pk; input ]

let sim : scheme =
  let generate ~seed =
    (* pk doubles as the (publicly known) key material: correct selection
       distribution, no privacy. See DESIGN.md, substitution 3. *)
    let pk = Sha256.digest_concat [ "simvrf-key"; seed ] in
    let prove input = (sim_output ~pk input, "") in
    ({ prove }, pk)
  in
  let verify ~pk ~input ~proof = if proof <> "" then None else Some (sim_output ~pk input) in
  { name = "sim"; generate; verify; proof_length = 0; output_length = 32 }

(* The sim VRF evaluated for a fixed set of inputs under every key of a
   population, with no allocation per evaluation.

   The padded message of input i is tag || pk || input_i || padding,
   cut into 64-byte blocks. Only block 0 holds key bytes, so every
   later block depends on the input alone: its message schedule is
   expanded once, here. Blocks that lie wholly inside the tag, the key
   and the prefix all inputs share are the same for every input; under
   one key they fold into a midstate once ([set_pk]), and each input
   then costs its own remaining blocks ([prefix56]). When that shared
   part is shorter than a block, block 0 holds input bytes as well and
   is rebuilt per (key, input). *)
module Sim_sweep = struct
  let pk_at = String.length sim_out_tag
  let pk_length = Sha256.digest_length

  type t = {
    head : int;  (** leading blocks shared by every input *)
    padded : string array;  (** each input's padded message, key bytes zeroed *)
    head_sched : int array;  (** schedules of shared blocks 1..head-1 *)
    sched : int array array;  (** each input's schedules of its blocks from max(head,1) *)
  }

  let padded_message input =
    Sha256.pad (String.concat "" [ sim_out_tag; String.make pk_length '\000'; input ]) ~off:0

  let common_prefix (inputs : string array) =
    let n = Array.length inputs in
    if n = 0 then 0
    else begin
      let limit = Array.fold_left (fun m s -> min m (String.length s)) max_int inputs in
      let rec go i =
        if i < limit && Array.for_all (fun s -> s.[i] = inputs.(0).[i]) inputs then go (i + 1)
        else i
      in
      go 0
    end

  (* Schedules of blocks [first..last] of [msg], 64 words each. *)
  let schedules msg ~first ~last =
    let w = Array.make (64 * max 0 (last - first + 1)) 0 in
    for k = first to last do
      Sha256.expand msg (64 * k) w (64 * (k - first))
    done;
    w

  let create (inputs : string array) : t =
    let padded = Array.map padded_message inputs in
    let head = (pk_at + pk_length + common_prefix inputs) / 64 in
    let head_sched =
      if Array.length padded = 0 then [||] else schedules padded.(0) ~first:1 ~last:(head - 1)
    in
    let sched =
      Array.map
        (fun msg -> schedules msg ~first:(max head 1) ~last:((String.length msg / 64) - 1))
        padded
    in
    { head; padded; head_sched; sched }

  type scratch = {
    block : Bytes.t;  (** block 0 under the current key *)
    w : int array;
    mid : int array;  (** state after the shared head under the current key *)
    st : int array;
  }

  let scratch () =
    let block = Bytes.make 64 '\000' in
    Bytes.blit_string sim_out_tag 0 block 0 pk_at;
    { block; w = Array.make 64 0; mid = Array.make 8 0; st = Array.make 8 0 }

  (* Block 0 of input [i]'s message under the key already in
     [s.block], folded into [h]. *)
  let block0 t s i h =
    let rest = pk_at + pk_length in
    Bytes.blit_string t.padded.(i) rest s.block rest (64 - rest);
    Sha256.compress h ~w:s.w (Bytes.unsafe_to_string s.block) 0

  let set_pk t s pk =
    if String.length pk <> pk_length then invalid_arg "Vrf.Sim_sweep.set_pk: key length";
    Bytes.blit_string pk 0 s.block pk_at pk_length;
    Sha256.init s.mid;
    if t.head > 0 then begin
      block0 t s 0 s.mid;
      for k = 0 to (Array.length t.head_sched / 64) - 1 do
        Sha256.rounds s.mid t.head_sched (64 * k)
      done
    end

  let prefix56 t s i =
    let st = s.st in
    for j = 0 to 7 do
      st.(j) <- s.mid.(j)
    done;
    if t.head = 0 then block0 t s i st;
    let sched = t.sched.(i) in
    for k = 0 to (Array.length sched / 64) - 1 do
      Sha256.rounds st sched (64 * k)
    done;
    (st.(0) lsl 24) lor (st.(1) lsr 8)
end
