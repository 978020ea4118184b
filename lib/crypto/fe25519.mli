(** Fixed-limb arithmetic in GF(2{^255} - 19): ten limbs in native ints,
    radix 2{^25.5}, with straight-line multiplication and squaring.
    Several times faster than the generic [Nat] field ops, against which
    the test suite cross-checks every operation.

    Values are {e weakly reduced}: limb [i] is nonnegative and below
    [limb_bound i] (2{^26} for even [i], 2{^25} + 2{^12} for odd [i]), so
    a value is below 2p but not necessarily below p, and one residue can
    have two representations. Arithmetic keeps this invariant without
    ever fully reducing; [equal], [is_zero], [parity] and [to_nat]
    reduce to the canonical representative before they look. *)

type t

val zero : unit -> t
val one : unit -> t
val of_int : int -> t
val of_nat : Nat.t -> t
(** Reduces mod p. *)

val to_nat : t -> Nat.t
(** The canonical representative, in \[0, p). *)

val equal : t -> t -> bool
(** Equality of residues, whatever their representations. *)

val is_zero : t -> bool
val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t
val sqr : t -> t

(** {1 In-place forms}

    [add_to r a b] stores [a + b] in [r], and likewise for the others.
    They allocate nothing, and [r] may alias any operand. *)

val create : unit -> t
(** A fresh value (zero) to use as a destination. *)

val add_to : t -> t -> t -> unit
val sub_to : t -> t -> t -> unit
val neg_to : t -> t -> unit
val mul_to : t -> t -> t -> unit
val sqr_to : t -> t -> unit

val inv : t -> t
(** Multiplicative inverse: Fermat by addition chain (254 squarings +
    11 multiplies). *)

val inv_many : t array -> t array
(** All inverses with one field inversion (Montgomery's trick). Zero
    entries map to zero. *)

val parity : t -> int
(** The low bit of the canonical representative. *)

val sqrt_m1 : t
(** A square root of -1 (derived, not transcribed). *)

val sqrt_ratio : u:t -> v:t -> t option
(** [sqrt_ratio ~u ~v] is some [x] with [v * x^2 = u], if one exists:
    the combined decompression trick, one addition chain and no
    inversion. *)

val copy : t -> t

(** {1 Raw limbs} *)

val limb_bound : int -> int
(** [limb_bound i] is the exclusive upper bound on limb [i]. *)

val of_limbs : int array -> t
(** A value from ten raw limbs, which need not be canonical.
    @raise Invalid_argument unless every limb [i] is in
    \[0, [limb_bound i]). *)

val to_limbs : t -> int array
(** A copy of the ten raw limbs, as stored. *)
