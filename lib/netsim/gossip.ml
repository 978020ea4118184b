(* The gossip overlay (section 4): each user connects to a small set of
   peers, signs what it originates, validates before relaying, and
   never relays the same message twice. Peer selection is weighted by
   stake to mitigate pollution attacks, and peers are re-drawn every
   round to heal possible disconnections (section 8.4).

   The overlay is generic in the message type; the application supplies
   a message id (for dedup), a validator (relay gating) and a delivery
   callback.

   Hostile-wire mode: with a [codec] installed, every message travels
   as encoded bytes ([Raw] packets) and is decoded at each hop before
   anything else looks at it - decode failure means the frame is
   dropped and counted, exactly like a real ingress parser. Because
   frames on the wire are just bytes, a network adversary can corrupt
   them in flight and malicious peers can inject arbitrary garbage
   ({!inject_raw}).

   Flood defense ([limits]): a leaky-bucket ingress queue per node
   bounds total inflow; each node's {!Ingress} (the pipeline the wire
   overlay runs too) adds a per-peer window quota and a ban score - fed
   by undecodable frames and quota violations - and the overlay answers
   a ban by cutting the link and drawing a replacement. All bookkeeping
   is deterministic (driven by sim-time and the overlay's own RNG). *)

open Algorand_sim
module Registry = Algorand_obs.Registry
module Trace = Algorand_obs.Trace

(* What actually travels through the simulated WAN: a typed value in
   the classic mode, encoded bytes in bytes-on-the-wire mode. [Raw]
   frames can arrive in either mode (flooders inject them); without a
   codec they are unparseable by definition and count as decode
   failures. *)
type 'msg packet = Plain of 'msg | Raw of string

type 'msg codec = {
  enc : 'msg -> string;
  dec : string -> 'msg option;
}

type limits = Ingress.limits

let default_limits : limits = Ingress.default_limits

type 'msg config = {
  msg_id : 'msg -> string;
  validate : int -> 'msg -> bool;
      (** [validate node msg]: relay (and deliver) only if true. *)
  deliver : int -> src:int -> 'msg -> unit;
  fanout : int;  (** outgoing peers per node; the paper uses 4 (8 total with inbound) *)
  point_to_point : 'msg -> bool;
      (** addressed messages (catch-up requests and their replies):
          delivered and deduplicated like everything else but never
          relayed onward *)
}

type 'msg t = {
  net : 'msg packet Network.t;
  config : 'msg config;
  codec : 'msg codec option;
  limits : limits option;
  rng : Rng.t;
  trace : Trace.t option;
  counters : Ingress.counters;  (** shared by every node's ingress *)
  h_ingress_depth : Registry.histogram option;
  peers : int list array;
  mutable weights : float array;  (** last weights, for ban-replacement draws *)
  ingress : ('msg packet, 'msg) Ingress.t array;  (** per node *)
  queue_depth : float array;  (** leaky-bucket ingress depth per node *)
  queue_drained_at : float array;
}

(* A is severed from B when either side banned the other: links are
   bidirectional, so a ban cuts the pair both ways. *)
let link_banned (t : 'msg t) a b =
  Ingress.banned t.ingress.(a) b || Ingress.banned t.ingress.(b) a

(* Draw peers for every node, weighted by stake. Each node initiates
   [fanout] connections; like the paper's TCP links these are
   bidirectional (a user "accepts incoming connections"), giving
   2 * fanout neighbors on average and - crucially - leaving no node
   without an inbound path. Banned pairs are never re-linked. *)
let draw_peers (t : 'msg t) ~(weights : float array) : unit =
  t.weights <- Array.copy weights;
  let n = Network.nodes t.net in
  let chosen = Array.init n (fun _ -> Hashtbl.create 8) in
  for node = 0 to n - 1 do
    let budget = min t.config.fanout (n - 1) in
    (* Rejection-sample distinct weighted peers; cap attempts for tiny nets. *)
    let attempts = ref 0 in
    let picked = ref 0 in
    while !picked < budget && !attempts < 50 * budget do
      incr attempts;
      let candidate = Rng.weighted_index t.rng weights in
      if
        candidate <> node
        && (not (Hashtbl.mem chosen.(node) candidate))
        && not (link_banned t node candidate)
      then begin
        Hashtbl.replace chosen.(node) candidate ();
        Hashtbl.replace chosen.(candidate) node ();
        incr picked
      end
    done
  done;
  for node = 0 to n - 1 do
    t.peers.(node) <- Hashtbl.fold (fun k () acc -> k :: acc) chosen.(node) []
  done

(* Trace overlay-topology changes: they are rare (once per round, per
   rejoin, or per ban) and explain why a node's neighborhood shifted. *)
let trace_instant ?detail (t : 'msg t) ~(node : int) (name : string) : unit =
  match t.trace with
  | Some tr when Trace.enabled tr ->
    Trace.instant tr ~node ~ts:(Network.now t.net) ~cat:"gossip" ~name ?detail ()
  | _ -> ()

(* [node]'s ingress has just banned [src]: sever the (mutual) link -
   the ban itself keeps any redraw from re-linking the pair - and draw
   [node] one weighted replacement peer so its degree (and the
   overlay's connectivity) survives the cut. *)
let on_ban (t : 'msg t) ~(node : int) ~(src : int) : unit =
  trace_instant t ~node "ban" ~detail:[ ("peer", string_of_int src) ];
  t.peers.(node) <- List.filter (fun p -> p <> src) t.peers.(node);
  t.peers.(src) <- List.filter (fun p -> p <> node) t.peers.(src);
  let n = Network.nodes t.net in
  if Array.length t.weights = n then begin
    let attempts = ref 0 in
    let found = ref false in
    while (not !found) && !attempts < 200 do
      incr attempts;
      let candidate = Rng.weighted_index t.rng t.weights in
      if
        candidate <> node && candidate <> src
        && (not (List.mem candidate t.peers.(node)))
        && not (link_banned t node candidate)
      then begin
        t.peers.(node) <- candidate :: t.peers.(node);
        if not (List.mem node t.peers.(candidate)) then
          t.peers.(candidate) <- node :: t.peers.(candidate);
        found := true
      end
    done
  end

(* The simulator's leaky-bucket ingress queue for the node as a whole,
   between the ban check and the per-peer quota: a frame enters the
   queue only once the quota has admitted it. Returns false when the
   frame must be dropped (already counted). *)
let admit (t : 'msg t) ~(node : int) ~(src : int) : bool =
  match t.limits with
  | None -> true
  | Some limits ->
    let now = Network.now t.net in
    (* Leaky bucket: depth decays at the service rate between arrivals. *)
    let drained = (now -. t.queue_drained_at.(node)) *. limits.drain_per_s in
    t.queue_depth.(node) <- Float.max 0.0 (t.queue_depth.(node) -. drained);
    t.queue_drained_at.(node) <- now;
    (match t.h_ingress_depth with
    | Some h -> Registry.observe h t.queue_depth.(node)
    | None -> ());
    if t.queue_depth.(node) +. 1.0 > float_of_int limits.queue_capacity then begin
      (* Tail drop, counted but NOT scored: the queue is shared across
         peers, so overflow does not implicate the sender of the frame
         that happened to arrive last - a flooder filling the queue must
         not get honest peers banned. Attribution comes from the per-peer
         quota and the decode-failure score. *)
      Ingress.bump t.counters.quota_drops;
      false
    end
    else if Ingress.admit t.ingress.(node) ~now ~src then begin
      t.queue_depth.(node) <- t.queue_depth.(node) +. 1.0;
      true
    end
    else false

let create ?registry ?trace ?codec ?limits ~(net : 'msg packet Network.t)
    ~(rng : Rng.t) ~(weights : float array) (config : 'msg config) : 'msg t =
  let n = Network.nodes net in
  let counters = Ingress.counters ?registry () in
  (* [Plain] is the typed fast path; [Raw] bytes only become a message
     through the installed codec. *)
  let decode = function
    | Plain msg -> Some msg
    | Raw frame -> ( match codec with None -> None | Some c -> c.dec frame)
  in
  (* Each node's ingress calls back into the overlay it belongs to. *)
  let rec t =
    lazy
      {
        net;
        config;
        codec;
        limits;
        rng;
        trace;
        counters;
        h_ingress_depth =
          Option.map
            (fun r ->
              Registry.histogram r ~lo:1.0 ~growth:2.0 ~buckets:16
                "gossip.ingress_queue_depth")
            registry;
        peers = Array.make n [];
        weights = Array.copy weights;
        ingress =
          Array.init n (fun node ->
              Ingress.create ~counters ?limits ~decode ~msg_id:config.msg_id
                ~validate:(config.validate node)
                ~on_ban:(fun src -> on_ban (Lazy.force t) ~node ~src)
                ());
        queue_depth = Array.make n 0.0;
        queue_drained_at = Array.make n 0.0;
      }
  in
  let t = Lazy.force t in
  draw_peers t ~weights;
  (* Ingress, in strict order: ban check, flood admission (queue, then
     the per-peer quota), decode, dedup, validate - all but the queue
     in {!Ingress} - then deliver + relay. Raw frames relay as the
     bytes that arrived, so a hop never re-encodes. *)
  let handle node ~src ~bytes:sz pkt =
    let ingress = t.ingress.(node) in
    if (not (Ingress.banned ingress src)) && admit t ~node ~src then
      match Ingress.receive ingress ~now:(Network.now net) ~src pkt with
      | None -> ()
      | Some msg ->
        config.deliver node ~src msg;
        if not (config.point_to_point msg) then
          List.iter
            (fun peer ->
              if peer <> src then begin
                Ingress.bump counters.relayed;
                Network.send net ~src:node ~dst:peer ~bytes:sz pkt
              end)
            t.peers.(node)
  in
  for node = 0 to n - 1 do
    Network.set_handler net node (handle node)
  done;
  t

(* Encode for the wire when a codec is installed; the typed fast path
   otherwise. *)
let pack (t : 'msg t) (msg : 'msg) : 'msg packet =
  match t.codec with None -> Plain msg | Some c -> Raw (c.enc msg)

(* Originate a message at [node]: mark seen, forward. *)
let broadcast (t : 'msg t) ~(node : int) ~(bytes : int) (msg : 'msg) : unit =
  if Ingress.originate t.ingress.(node) msg then begin
    let pkt = pack t msg in
    List.iter
      (fun peer -> Network.send t.net ~src:node ~dst:peer ~bytes pkt)
      t.peers.(node)
  end

(* Inject a raw frame from [node] to all its peers, bypassing the
   codec: the attack primitive behind Adversary.flood. Honest receivers
   treat whatever arrives as untrusted bytes; garbage is counted,
   scored and dropped at their ingress. *)
let inject_raw (t : 'msg t) ~(node : int) ~(bytes : int) (frame : string) : unit =
  Ingress.bump t.counters.originated;
  List.iter
    (fun peer -> Network.send t.net ~src:node ~dst:peer ~bytes (Raw frame))
    t.peers.(node)

(* Re-draw the whole peer graph (section 8.4: "Algorand replaces gossip
   peers each round", healing nodes that landed in a disconnected
   component). In-flight messages are unaffected; bans persist. *)
let redraw (t : 'msg t) ~(weights : float array) : unit =
  trace_instant t ~node:(-1) "redraw";
  draw_peers t ~weights

(* Re-link a single (rejoining) node: sever its old links, reset its
   ingress - a fresh process knows nothing it has relayed, and its
   own ban list and meters are in-memory state too, though peers that
   banned IT remember - and draw it a fresh set of weighted
   bidirectional peers. Everyone else's links are untouched. *)
let relink (t : 'msg t) ~(node : int) ~(weights : float array) : unit =
  trace_instant t ~node "relink";
  t.weights <- Array.copy weights;
  Ingress.reset t.ingress.(node);
  t.queue_depth.(node) <- 0.0;
  t.queue_drained_at.(node) <- Network.now t.net;
  let n = Network.nodes t.net in
  for i = 0 to n - 1 do
    if i <> node then t.peers.(i) <- List.filter (fun p -> p <> node) t.peers.(i)
  done;
  let budget = min t.config.fanout (n - 1) in
  let chosen = Hashtbl.create 8 in
  let attempts = ref 0 in
  while Hashtbl.length chosen < budget && !attempts < 50 * budget do
    incr attempts;
    let candidate = Rng.weighted_index t.rng weights in
    if candidate <> node && not (link_banned t node candidate) then
      Hashtbl.replace chosen candidate ()
  done;
  let links = Hashtbl.fold (fun k () acc -> k :: acc) chosen [] in
  t.peers.(node) <- links;
  List.iter
    (fun peer ->
      if not (List.mem node t.peers.(peer)) then t.peers.(peer) <- node :: t.peers.(peer))
    links

let duplicates_dropped (t : 'msg t) : int = Ingress.count t.counters.duplicates
let invalid_dropped (t : 'msg t) : int = Ingress.count t.counters.invalid
let decode_failures (t : 'msg t) : int = Ingress.count t.counters.decode_failures
let quota_drops (t : 'msg t) : int = Ingress.count t.counters.quota_drops
let banned_links (t : 'msg t) : int = Ingress.count t.counters.bans
let banned_by (t : 'msg t) (node : int) : int list = Ingress.banned_peers t.ingress.(node)
let peers (t : 'msg t) (node : int) : int list = t.peers.(node)

(* Point-to-point send outside the overlay: block-fetch replies, and
   byzantine senders that show different messages to different peers. *)
let send_to (t : 'msg t) ~(src : int) ~(dst : int) ~(bytes : int) (msg : 'msg) : unit =
  Ingress.bump t.counters.p2p;
  Network.send t.net ~src ~dst ~bytes (pack t msg)

(* Mark a message as seen at [node] without delivering it (used by
   originators of direct sends so their own relays stay consistent). *)
let mark_seen (t : 'msg t) ~(node : int) (msg : 'msg) : unit =
  Ingress.mark_seen t.ingress.(node) msg
