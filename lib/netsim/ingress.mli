(** One node's untrusted-ingress pipeline, shared by both gossip
    overlays: {!Gossip} over the simulated network and [Wire_gossip]
    over a byte transport (Loopback or TCP).

    Sans-IO: the caller passes the time, the sender and the frame and
    gets a verdict back; nothing here touches a network, an engine or
    a transport. The caller supplies the decoder, the message id, the
    validator and an [on_ban] callback, and keeps peer selection,
    relaying and (in the simulator) the leaky-bucket ingress queue.

    Pipeline order: {!banned}, {!admit} (per-peer window quota),
    {!receive} (decode, dedup, validate), then the caller delivers the
    message and relays the frame as it arrived. Undecodable frames and
    quota violations feed a per-peer ban score; crossing
    [ban_threshold] bans the peer and calls [on_ban] synchronously. *)

type limits = {
  queue_capacity : int;  (** max ingress-queue depth per node (simulator only) *)
  drain_per_s : float;  (** ingress-queue service rate, messages/second (simulator only) *)
  quota_window_s : float;  (** per-peer quota window length *)
  quota_msgs : int;  (** max messages accepted from one peer per window *)
  ban_threshold : int;  (** ban score at which a peer is disconnected *)
  decode_fail_score : int;  (** score added per undecodable frame *)
  quota_score : int;
      (** score added per per-peer quota violation (queue tail drops are
          counted but unscored: shared-queue overflow does not
          implicate the frame's sender) *)
}

val default_limits : limits
(** Generous for honest traffic at paper scale; a deliberate flooder
    crosses the ban threshold within a few simulated seconds. *)

type counter

val bump : counter -> unit
val count : counter -> int

(** One record per overlay; the simulator's nodes share theirs. *)
type counters = {
  originated : counter;
  delivered : counter;
  relayed : counter;  (** fan-out sends while relaying *)
  duplicates : counter;
  invalid : counter;
  decode_failures : counter;
  quota_drops : counter;
  bans : counter;
  p2p : counter;  (** point-to-point sends *)
}

val counters : ?registry:Algorand_obs.Registry.t -> unit -> counters
(** Plain ints, mirrored with [registry] into "gossip.originated",
    "gossip.delivered", "gossip.relayed", "gossip.duplicates_dropped",
    "gossip.invalid_dropped", "gossip.decode_fail",
    "gossip.quota_drops", "gossip.banned_peers" and
    "gossip.p2p_sends". *)

type ('pkt, 'msg) t

val create :
  counters:counters ->
  ?limits:limits ->
  decode:('pkt -> 'msg option) ->
  msg_id:('msg -> string) ->
  validate:('msg -> bool) ->
  on_ban:(int -> unit) ->
  unit ->
  ('pkt, 'msg) t
(** Without [limits] there is no quota and no ban scoring. *)

val banned : (_, _) t -> int -> bool

val admit : (_, _) t -> now:float -> src:int -> bool
(** The per-peer window quota; [false] means drop (counted and
    scored). Always [true] without [limits]. *)

val receive : ('pkt, 'msg) t -> now:float -> src:int -> 'pkt -> 'msg option
(** Decode, dedup and validate an admitted frame. [Some msg]: new and
    valid, now marked seen and counted delivered. A frame that fails
    validation is not marked seen. *)

val originate : (_, 'msg) t -> 'msg -> bool
(** Mark a message this node sends seen; [false] if it already was. *)

val mark_seen : (_, 'msg) t -> 'msg -> unit

val banned_peers : (_, _) t -> int list
(** Sorted. *)

val reset : (_, _) t -> unit
(** A restart: forget the dedup table, the ban set and the meters. *)
