(** SHA-256 (FIPS 180-4), pure OCaml, constants derived at init time. *)

val init : int array -> unit
(** [init h] loads the initial hash value into [h.(0..7)]. *)

val expand : string -> int -> int array -> int -> unit
(** [expand block off w woff] expands the 64-byte block at [block.[off]]
    into the message schedule [w.(woff..woff+63)]. Callers own their
    schedule buffers: hashing keeps no shared scratch state, so domains
    may hash at once.
    @raise Invalid_argument when either range is out of bounds. *)

val rounds : int array -> int array -> int -> unit
(** [rounds h w woff] runs the 64 compression rounds over the expanded
    schedule at [w.(woff)] and folds the result into the state
    [h.(0..7)]. With [expand], this splits the compression function so
    a schedule expanded once can be replayed against many states.
    @raise Invalid_argument when [h] is shorter than 8 words or the
    schedule range is out of bounds. *)

val compress : int array -> w:int array -> string -> int -> unit
(** [compress h ~w block off] is [expand block off w 0; rounds h w 0]:
    one block folded into [h], with [w] as scratch. *)

val pad : string -> off:int -> string
(** [pad msg ~off] is [msg] from byte [off] on, followed by the FIPS
    180-4 padding of the whole of [msg]; a multiple of 64 bytes when
    [off] is. *)

val digest_length : int
(** 32 bytes. *)

val digest : string -> string
(** [digest msg] is the 32-byte SHA-256 digest of [msg]. *)

val digest_hex : string -> string
(** [digest_hex msg] is the digest rendered as lowercase hex. *)

val digest_concat : string list -> string
(** [digest_concat parts] hashes the concatenation of [parts]. *)

val digest_int : string -> int
(** A 62-bit nonnegative integer folded from the digest prefix; used to
    seed deterministic simulation RNGs from protocol hashes. *)
