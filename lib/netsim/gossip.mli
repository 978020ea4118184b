(** The gossip overlay (section 4): stake-weighted bidirectional peer
    links, validate-before-relay, at-most-once relay per message id.

    With a {!codec} installed, the overlay runs bytes-on-the-wire:
    every message is encoded at the sender and decoded at each
    receiving hop before anything else looks at it; undecodable frames
    are dropped and counted. With {!limits}, each node bounds its
    ingress with a leaky-bucket queue; the rest of the pipeline (quota,
    ban score, decode, dedup, validate) is each node's {!Ingress}, the
    one the wire overlay runs too. *)

open Algorand_sim

type 'msg packet = Plain of 'msg | Raw of string
    (** What travels through {!Network}: typed values in the classic
        mode, encoded bytes in bytes-on-the-wire mode. [Raw] frames
        without an installed codec count as decode failures. *)

type 'msg codec = {
  enc : 'msg -> string;
  dec : string -> 'msg option;
}

type limits = Ingress.limits

val default_limits : limits

type 'msg config = {
  msg_id : 'msg -> string;
  validate : int -> 'msg -> bool;
      (** Relay gate; stateful validators get re-asked on later copies
          of a message they rejected. *)
  deliver : int -> src:int -> 'msg -> unit;
  fanout : int;  (** connections initiated per node (the paper uses 4) *)
  point_to_point : 'msg -> bool;
      (** addressed messages: delivered and deduplicated, never relayed *)
}

type 'msg t

val create :
  ?registry:Algorand_obs.Registry.t ->
  ?trace:Algorand_obs.Trace.t ->
  ?codec:'msg codec ->
  ?limits:limits ->
  net:'msg packet Network.t ->
  rng:Rng.t ->
  weights:float array ->
  'msg config ->
  'msg t
(** With [registry], the overlay maintains the {!Ingress.counters}
    family plus a "gossip.ingress_queue_depth" histogram. With an
    enabled [trace],
    peer-graph changes ({!redraw}, {!relink}, bans) emit instant
    events. Ingress pipeline order: ban check, flood admission (queue,
    then per-peer quota), decode, dedup, validate, deliver + relay (a
    hop relays the [Raw] bytes it received — no re-encode). *)

val broadcast : 'msg t -> node:int -> bytes:int -> 'msg -> unit
(** Originate a message at [node] (encoded first when in wire mode). *)

val inject_raw : 'msg t -> node:int -> bytes:int -> string -> unit
(** Send an arbitrary frame from [node] to all its peers, bypassing
    the codec: the flood/garbage attack primitive. Receivers treat it
    as untrusted ingress like anything else. *)

val peers : 'msg t -> int -> int list

val banned_by : 'msg t -> int -> int list
(** Peers that [node] has disconnected for misbehavior, sorted. *)

val send_to : 'msg t -> src:int -> dst:int -> bytes:int -> 'msg -> unit
(** Point-to-point send outside the overlay (block-fetch replies,
    byzantine equivocation). *)

val mark_seen : 'msg t -> node:int -> 'msg -> unit

val redraw : 'msg t -> weights:float array -> unit
(** Replace every node's peers (section 8.4: peers are re-drawn each
    round, healing disconnected components). Banned pairs are never
    re-linked. *)

val relink : 'msg t -> node:int -> weights:float array -> unit
(** Re-link a single rejoining node: sever its old links, clear its
    dedup state (and, as a restart, its own ban list and ingress
    meters), and draw it fresh weighted bidirectional peers. Everyone
    else's links — and their bans against it — are untouched. *)

val duplicates_dropped : 'msg t -> int
val invalid_dropped : 'msg t -> int
val decode_failures : 'msg t -> int
val quota_drops : 'msg t -> int
val banned_links : 'msg t -> int
