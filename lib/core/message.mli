(** Gossip message types (Figure 1, sections 6 and 8.2). *)

module Block = Algorand_ledger.Block
module Transaction = Algorand_ledger.Transaction
module Vote = Algorand_ba.Vote

type fork_proposal = {
  attempt : int;  (** recovery clock tick *)
  proposer_pk : string;
  vrf_hash : string;
  vrf_proof : string;
  priority : string;
  suffix : Block.t list;  (** blocks above the stable prefix, oldest first *)
  tip_hash : string;
}

type t =
  | Tx of Transaction.t
  | Priority of Proposal.priority_msg
  | Block_gossip of Block.t
  | Ba_vote of Vote.t
  | Block_request of { round : int; block_hash : string; requester : int; attempt : int }
      (** BlockOfHash (Algorithm 3): fetch an agreed hash's pre-image;
          [attempt] distinguishes retries from relay-deduped originals *)
  | Block_reply of Block.t
  | Fork_proposal of fork_proposal  (** recovery (section 8.2) *)
  | Round_request of { from_round : int; requester : int; attempt : int }
      (** live catch-up (section 8.3): ask a peer for the certified
          rounds we missed, starting at [from_round] *)
  | Round_reply of {
      to_ : int;
      current_round : int;
      items : (Block.t * Certificate.t) list;
    }

val id : t -> string
(** Relay-dedup id; one message per key per (round, step), and one
    block per (round, proposer), per section 8.4. Retried requests
    carry their attempt number so re-issues are not deduped away. *)

val point_to_point : t -> bool
(** Addressed catch-up traffic ([Round_request], [Round_reply]):
    delivered and deduplicated, never relayed by either overlay. *)

val size_bytes : t -> int
val kind : t -> string
