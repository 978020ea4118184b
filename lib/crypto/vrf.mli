(** Verifiable random functions (Micali-Rabin-Vadhan), the primitive
    behind cryptographic sortition (section 5).

    Two implementations share one closure-record interface: [ecvrf] is
    a real ECVRF-style construction over the ed25519 curve; [sim] is a
    hash-based stand-in with the same output distribution but no
    secrecy, used for large-scale simulations (the paper itself elides
    verification cost when simulating 500,000 users, section 10.1). *)

type prover = { prove : string -> string * string  (** input -> (hash, proof) *) }

type scheme = {
  name : string;
  generate : seed:string -> prover * string;  (** seed -> (prover, public key) *)
  verify : pk:string -> input:string -> proof:string -> string option;
      (** the VRF hash, iff the proof is valid for [pk] and [input] *)
  proof_length : int;
  output_length : int;
}

val hash_to_curve : string -> Ed25519.point
(** Try-and-increment hashing to the prime-order subgroup. *)

val ecvrf : scheme
(** ECVRF over ed25519: Gamma = sk*H(input), Fiat-Shamir proof,
    cofactor-cleared output; structure per the Goldberg et al. VRF the
    paper cites. *)

val sim : scheme
(** Distribution-faithful simulation VRF (outputs derivable from the
    public key; zero-length proofs). See DESIGN.md, substitution 3. *)

(** The sim VRF's output prefix for a fixed array of inputs under every
    key of a population, at one SHA-256 midstate per key and no
    allocation per evaluation. [prefix56] agrees bit for bit with the
    first 7 bytes of [sim.verify ~pk ~input ~proof:""]. *)
module Sim_sweep : sig
  type t

  val create : string array -> t
  (** Lays out the padded messages of the inputs (indexed as given) and
      expands every key-independent message schedule. *)

  type scratch
  (** Per-caller working state; one per domain. *)

  val scratch : unit -> scratch

  val set_pk : t -> scratch -> string -> unit
  (** Selects the key that the following [prefix56] calls evaluate
      under, and folds its shared message blocks into a midstate.
      @raise Invalid_argument unless the key is 32 bytes, the length of
      every sim public key. *)

  val prefix56 : t -> scratch -> int -> int
  (** [prefix56 t s i] is the big-endian 56-bit prefix of the sim VRF
      output for input [i] under the key last given to [set_pk]. *)
end
