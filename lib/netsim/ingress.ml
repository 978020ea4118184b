(* One node's untrusted-ingress pipeline; see the interface. Both
   gossip overlays run it, so a hardening fix lands once. All state is
   per receiving node and driven only by the caller's [now]. *)

module Registry = Algorand_obs.Registry

(* The queue fields are read only by the simulated overlay's leaky
   bucket; on a real transport the socket buffers play that role. *)
type limits = {
  queue_capacity : int;
  drain_per_s : float;
  quota_window_s : float;
  quota_msgs : int;
  ban_threshold : int;
  decode_fail_score : int;
  quota_score : int;
}

let default_limits : limits =
  {
    queue_capacity = 512;
    drain_per_s = 2_000.0;
    quota_window_s = 1.0;
    quota_msgs = 200;
    ban_threshold = 100;
    decode_fail_score = 10;
    quota_score = 1;
  }

(* A plain int for in-process accessors, mirrored into the registry
   when one is wired in (so metrics snapshots carry it). *)
type counter = { mutable n : int; reg : Registry.counter option }

let bump (c : counter) : unit =
  c.n <- c.n + 1;
  match c.reg with Some r -> Registry.incr r | None -> ()

let count (c : counter) : int = c.n

type counters = {
  originated : counter;
  delivered : counter;
  relayed : counter;
  duplicates : counter;
  invalid : counter;
  decode_failures : counter;
  quota_drops : counter;
  bans : counter;
  p2p : counter;
}

let counters ?registry () : counters =
  let c name =
    { n = 0; reg = Option.map (fun r -> Registry.counter r ("gossip." ^ name)) registry }
  in
  {
    originated = c "originated";
    delivered = c "delivered";
    relayed = c "relayed";
    duplicates = c "duplicates_dropped";
    invalid = c "invalid_dropped";
    decode_failures = c "decode_fail";
    quota_drops = c "quota_drops";
    bans = c "banned_peers";
    p2p = c "p2p_sends";
  }

(* Per-sender flood-defense bookkeeping. *)
type meter = {
  mutable window_start : float;
  mutable window_count : int;
  mutable ban_score : int;
}

type ('pkt, 'msg) t = {
  counters : counters;
  limits : limits option;
  decode : 'pkt -> 'msg option;
  msg_id : 'msg -> string;
  validate : 'msg -> bool;
  on_ban : int -> unit;
  seen : (string, unit) Hashtbl.t;
  banned_set : (int, unit) Hashtbl.t;
  meters : (int, meter) Hashtbl.t;
}

let create ~counters ?limits ~decode ~msg_id ~validate ~on_ban () : ('pkt, 'msg) t =
  {
    counters;
    limits;
    decode;
    msg_id;
    validate;
    on_ban;
    seen = Hashtbl.create 64;
    banned_set = Hashtbl.create 4;
    meters = Hashtbl.create 8;
  }

let banned (t : (_, _) t) (src : int) : bool = Hashtbl.mem t.banned_set src

let meter (t : (_, _) t) ~(now : float) (src : int) : meter =
  match Hashtbl.find_opt t.meters src with
  | Some m -> m
  | None ->
    let m = { window_start = now; window_count = 0; ban_score = 0 } in
    Hashtbl.replace t.meters src m;
    m

let score (t : (_, _) t) ~(limits : limits) ~(now : float) (src : int) (points : int) : unit =
  let m = meter t ~now src in
  m.ban_score <- m.ban_score + points;
  if m.ban_score >= limits.ban_threshold && not (banned t src) then begin
    Hashtbl.replace t.banned_set src ();
    bump t.counters.bans;
    t.on_ban src
  end

let admit (t : (_, _) t) ~(now : float) ~(src : int) : bool =
  match t.limits with
  | None -> true
  | Some limits ->
    let m = meter t ~now src in
    if now -. m.window_start >= limits.quota_window_s then begin
      m.window_start <- now;
      m.window_count <- 0
    end;
    if m.window_count >= limits.quota_msgs then begin
      bump t.counters.quota_drops;
      score t ~limits ~now src limits.quota_score;
      false
    end
    else begin
      m.window_count <- m.window_count + 1;
      true
    end

let receive (t : ('pkt, 'msg) t) ~(now : float) ~(src : int) (pkt : 'pkt) : 'msg option =
  match t.decode pkt with
  | None ->
    bump t.counters.decode_failures;
    (match t.limits with
    | Some limits -> score t ~limits ~now src limits.decode_fail_score
    | None -> ());
    None
  | Some msg as verdict ->
    let id = t.msg_id msg in
    if Hashtbl.mem t.seen id then begin
      bump t.counters.duplicates;
      None
    end
    else if not (t.validate msg) then begin
      (* Not marked seen: validation is stateful (e.g. the priority-
         based block discard of section 6), so a copy arriving later -
         when this node knows more - gets a fresh chance. Marking seen
         only AFTER validation also means an invalid variant that
         shares a gossip id with an honest message (a corrupted copy
         racing the original) cannot poison the dedup table and
         suppress the real one. *)
      bump t.counters.invalid;
      None
    end
    else begin
      Hashtbl.replace t.seen id ();
      bump t.counters.delivered;
      verdict
    end

let originate (t : (_, 'msg) t) (msg : 'msg) : bool =
  let id = t.msg_id msg in
  if Hashtbl.mem t.seen id then false
  else begin
    Hashtbl.replace t.seen id ();
    bump t.counters.originated;
    true
  end

let mark_seen (t : (_, 'msg) t) (msg : 'msg) : unit = Hashtbl.replace t.seen (t.msg_id msg) ()

let banned_peers (t : (_, _) t) : int list =
  Hashtbl.fold (fun p () acc -> p :: acc) t.banned_set [] |> List.sort compare

let reset (t : (_, _) t) : unit =
  Hashtbl.reset t.seen;
  Hashtbl.reset t.banned_set;
  Hashtbl.reset t.meters
