(** Cryptographic sortition (Algorithms 1 and 2 of the paper).

    A user with weight [w] out of a total [W] evaluates a VRF on
    [seed||role] and maps the hash through the binomial CDF of
    B(.; w, tau/W); the result [j] is how many of the user's
    "sub-users" are selected for the role. Splitting weight across
    Sybil identities leaves the selected-count distribution unchanged
    (binomial additivity, section 5.1). *)

open Algorand_crypto

type selection = {
  vrf_hash : string;  (** VRF output; also the priority source (section 6) *)
  vrf_proof : string;
  j : int;  (** number of selected sub-users; 0 = not selected *)
}

val prefix_fraction : int -> float
(** [prefix_fraction v] is the hash fraction of a hash whose first 7
    bytes read big-endian as [v]: [v] rounded once to a double, times
    2{^-56}. *)

val prefix_cutoff : float -> int
(** [prefix_cutoff x] is the least [v] in [\[0, 2{^56}\]] with
    [prefix_fraction v >= x]; so [prefix_fraction v < x] exactly when
    [v < prefix_cutoff x]. *)

val hash_fraction : string -> float
(** [hash / 2{^hashlen}] from the hash's 56-bit prefix:
    [prefix_fraction] of its first 7 bytes. *)

val vrf_input : seed:string -> role:string -> string

val select :
  prover:Vrf.prover ->
  seed:string ->
  tau:float ->
  role:string ->
  w:int ->
  total_weight:int ->
  selection
(** Algorithm 1. @raise Invalid_argument on nonsensical weights. *)

val verify :
  scheme:Vrf.scheme ->
  pk:string ->
  vrf_hash:string ->
  vrf_proof:string ->
  seed:string ->
  tau:float ->
  role:string ->
  w:int ->
  total_weight:int ->
  int
(** Algorithm 2: the verified number of selected sub-users, or 0 if the
    proof is invalid. *)

val sub_user_priority : vrf_hash:string -> index:int -> string
(** H(vrf_hash || index): the block-proposal priority of one sub-user. *)

val best_priority : vrf_hash:string -> j:int -> string option
(** Highest sub-user priority, or [None] when [j = 0]. *)
