(** Million-user population engine (section 10.1 at paper scale).

    Runs BA* rounds over populations of 500k-1M users by materializing
    full {!Node.t} state machines only for the users sortition selects
    into the round's role window; the passive population exists as flat
    per-user arrays (VRF public key, stake) swept once per round for the
    whole role window by {!sweep}. Identities, genesis, seeds and
    sortition match {!Harness} exactly, so at the same seed the
    abstracted run certifies bit-identical blocks to a fully
    materialized run (the per-seed equivalence audit in the test
    suite). Requires sim crypto, zero transaction workload and no
    adversary - the regime of Figures 5 and 6. *)

module Params = Algorand_ba.Params
module Registry = Algorand_obs.Registry

type config = {
  users : int;
  stake_per_user : int;
  stake_distribution : [ `Equal | `Linear ];
  params : Params.t;
  block_bytes : int;
  rounds : int;
  rng_seed : int;
  fanout : int;  (** modeled uplink copies per originated message *)
  bandwidth_bps : float;
  bin_window : int;
      (** BinaryBA* steps materialized per round; must be >= 4 (a bin-1
          decider still votes in bins 2-4), and wide enough to ride out
          committees that miss their vote threshold - a few percent per
          step at sweep-sized taus. Rounds needing more are counted,
          not silently truncated. *)
  registry : Registry.t option;
      (** metrics registry to export the [sim.population],
          [sim.events_live] and [sim.heap_peak] gauges into *)
}

val default : config

type round_stat = {
  round : int;
  block_hash : string;
  final : bool;
  eligible : int;  (** users selected for any window role - the materialized set *)
  proposers : int;
  latency_s : float;  (** round start to the last materialized node's completion *)
  events : int;
  modeled_bytes_per_user : float;
  max_bin_steps : int;
}

type result = {
  config : config;
  round_stats : round_stat list;  (** oldest first *)
  block_hashes : string list;  (** certified block hash per round, oldest first *)
  sim_time : float;
  total_events : int;
  peak_pending : int;  (** event-queue live-heap high-water mark *)
  max_materialized : int;
  window_exceeded_rounds : int;
  agreement : bool;  (** every materialized node certified the same block each round *)
  setup_s : float;  (** wall time spent deriving identities and building the genesis *)
}

val sweep :
  pks:string array ->
  stakes:int array ->
  total_weight:int ->
  seed:string ->
  roles:(string * float) array ->
  selected:bool array ->
  lo:int ->
  hi:int ->
  int array
(** [sweep ~pks ~stakes ~total_weight ~seed ~roles ~selected ~lo ~hi]
    runs sim-VRF sortition for users [lo..hi-1] (sim public key
    [pks.(u)], weight [stakes.(u)]) in every [(role, tau)] of [roles],
    sets [selected.(u)] for each user selected in some role, and
    returns the per-role selected counts. Each (user, role) decision is
    bit-identical to [Sortition.verify] with [Vrf.sim]. The range is
    split into contiguous slices across up to
    [Domain.recommended_domain_count ()] domains, never fewer than a
    few thousand users each; slices write disjoint parts of
    [selected]. *)

val run : config -> result
(** Drive [config.rounds] rounds; stops early (with [agreement = false])
    if any round fails its cross-node certification audit.
    @raise Invalid_argument on degenerate configs (fewer than 4 users,
    no rounds, [bin_window < 4]). *)
