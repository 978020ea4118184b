(* Whole-system benchmark. One workload per process, driven through the
   public entry points (Harness.build / install_workload / Node.start /
   Engine.run, and Population.run), timed from outside. Untraced runs
   give the end-to-end metrics; a traced run adds per-layer costs,
   measured by calling each layer's public functions on the run's own
   artifacts, multiplied by work counts taken from the program's own
   counters. PERFBENCH.md lists every metric and its counting rule.

   Usage: algobench.exe --workload NAME --seed N --seconds S --trace 0|1
          algobench.exe --self-test --workload NAME --seed N *)

module Harness = Algorand_core.Harness
module Population = Algorand_core.Population
module Node = Algorand_core.Node
module Identity = Algorand_core.Identity
module Codec = Algorand_core.Codec
module Message = Algorand_core.Message
module History = Algorand_core.History
module Disk_store = Algorand_core.Disk_store
module Params = Algorand_ba.Params
module Vote = Algorand_ba.Vote
module Vote_counter = Algorand_ba.Vote_counter
module Engine = Algorand_sim.Engine
module Metrics = Algorand_sim.Metrics
module Registry = Algorand_obs.Registry
module Chain = Algorand_ledger.Chain
module Genesis = Algorand_ledger.Genesis
module Balances = Algorand_ledger.Balances
module Transaction = Algorand_ledger.Transaction
module Txpool = Algorand_ledger.Txpool
module Workload = Algorand_ledger.Workload
module Sortition = Algorand_sortition.Sortition
module Binomial = Algorand_sortition.Binomial
module Vrf = Algorand_crypto.Vrf
module Signature_scheme = Algorand_crypto.Signature_scheme

let wall = Unix.gettimeofday
let span = Spans.with_

let rec rm_rf (path : string) : unit =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* ------------------------------------------------------------------ *)
(* Statistics.                                                          *)
(* ------------------------------------------------------------------ *)

let sorted (l : float list) : float array =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

(* Nearest-rank quantile of a sorted array. *)
let quantile (a : float array) (q : float) : float =
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median (l : float list) : float =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* p90 is reported only where at least ten samples lie beyond it. *)
let p90_reportable (n : int) : bool = n >= 100

(* Wall time per call of [f], repeating [f] until at least [min_s] has
   passed so short calls are timed over many iterations. *)
let per_call ?(min_s = 0.05) (f : unit -> unit) : float =
  let t0 = wall () in
  let n = ref 0 in
  while !n = 0 || wall () -. t0 < min_s do
    f ();
    incr n
  done;
  (wall () -. t0) /. float_of_int !n

(* ------------------------------------------------------------------ *)
(* Workloads.                                                           *)
(* ------------------------------------------------------------------ *)

type stream_spec = {
  zipf_s : float;
  mix : Workload.mix;
  rate_per_s : float;  (** fixed virtual-time arrival rate, open loop *)
  first_due : float;
  horizon : float;  (** no payment is due after this virtual time *)
}

type harness_spec = { config : Harness.config; stream : stream_spec }

type spec =
  | Pop of Population.config
  | Net of harness_spec list  (** deployments run back to back, pooled *)

(* Workload definitions. A run repeats one workload at one seed; every
   repetition must certify the same blocks. *)
let spec_of ~(name : string) ~(seed : int) ~(out_dir : string) : spec =
  match name with
  | "pop-100k" ->
    Pop
      {
        Population.default with
        users = 100_000;
        rounds = 2;
        params = Params.scaled ~factor:0.01;
        block_bytes = 1_000_000;
        rng_seed = seed;
      }
  | "commit-real" ->
    Net
      [
        {
        config =
          {
            Harness.default with
            users = 10;
            rounds = 3;
            rng_seed = seed;
            crypto = Harness.Real_crypto;
            wire = `Bytes;
            verify_tx_sigs = true;
            params = Params.paper;
            block_bytes = 100_000;
            tx_rate_per_s = 0.0;
            store_root = Some (Filename.concat out_dir "store");
            checkpoint_every = 1;
          };
        stream =
          {
            zipf_s = 1.1;
            mix = Workload.hostile;
            rate_per_s = 10.0;
            first_due = 0.5;
            horizon = 35.0;
          };
        };
      ]
  | "gossip-churn" ->
    (* Four deployments per repetition: which nodes crash moves the
       per-seed work by about 10%, and pooling four seeds halves that
       spread; one repetition then fills most of a run. *)
    Net
      (List.init 4 (fun k ->
      {
        config =
          {
            Harness.default with
            users = 50;
            rounds = 5;
            rng_seed = seed + (k * 100_003);
            crypto = Harness.Sim_crypto;
            wire = `Bytes;
            params = Params.paper;
            block_bytes = 1_000_000;
            tx_rate_per_s = 0.0;
            attack =
              Harness.Crash_churn
                (Harness.Periodic
                   {
                     start = 5.0;
                     period = 15.0;
                     fraction = 0.1;
                     down_for = 8.0;
                     until = 40.0;
                   });
            store_root = Some (Filename.concat out_dir "store");
            checkpoint_every = 1;
          };
        stream =
          {
            zipf_s = 0.0;
            mix = Workload.clean;
            rate_per_s = 5.0;
            first_due = 0.5;
            horizon = 55.0;
          };
      }))
  | other -> failwith (Printf.sprintf "unknown workload %S" other)

let workload_names = [ "pop-100k"; "commit-real"; "gossip-churn" ]

(* ------------------------------------------------------------------ *)
(* Payment stream: generated and signed before steady state, injected  *)
(* at fixed virtual times.                                             *)
(* ------------------------------------------------------------------ *)

type payment = { tx : Transaction.t; origin : int; due : float; valid : bool }

let make_stream (s : stream_spec) ~(identities : Identity.t array) ~(seed : int) :
    payment array =
  let wl =
    Workload.create
      {
        Workload.accounts =
          Workload.Provided
            {
              pks = Array.map (fun (id : Identity.t) -> id.pk) identities;
              signers = Array.map (fun (id : Identity.t) -> id.signer) identities;
            };
        zipf_s = s.zipf_s;
        mix = s.mix;
        burst = None;
        amount = 1;
        seed = seed + 7919;
      }
  in
  let n = int_of_float ((s.horizon -. s.first_due) *. s.rate_per_s) + 1 in
  Array.init n (fun i ->
      let before = Workload.stats wl in
      let tx, origin = Workload.next wl in
      let after = Workload.stats wl in
      {
        tx;
        origin;
        due = s.first_due +. (float_of_int i /. s.rate_per_s);
        valid = after.valid > before.valid || after.self_pay > before.self_pay;
      })

(* A wallet submits at its own node, failing over to the next node that
   is up; nothing is submitted once every node has finished. *)
let inject (h : Harness.t) (stream : payment array) ~(submitted : bool array) : unit =
  let n = Array.length h.nodes in
  Array.iteri
    (fun i p ->
      Engine.at h.engine ~time:p.due (fun () ->
          if not (Array.for_all Node.is_stopped h.nodes) then begin
            let rec pick k =
              if k = n then None
              else
                let j = (p.origin + k) mod n in
                if Node.is_down h.nodes.(j) then pick (k + 1) else Some j
            in
            match pick 0 with
            | Some j ->
              submitted.(i) <- true;
              Node.submit_tx h.nodes.(j) p.tx
            | None -> ()
          end))
    stream

(* ------------------------------------------------------------------ *)
(* One repetition of a harness workload.                                *)
(* ------------------------------------------------------------------ *)

type net_rep = {
  h : Harness.t;
  stream : payment array;
  submitted : bool array;
  setups : float list;
  sign_s : float;
  steady_s : float;
  gc_minor_words : float;
  gc_major : int;
  hashes : string list;  (** node 0's certified block per round *)
  completed : bool;  (** every live node certified the last round *)
}

let chain_hashes (chain : Chain.t) ~(rounds : int) : string list =
  let tip = Chain.tip chain in
  List.init rounds (fun i ->
      match Chain.ancestor_at chain ~hash:tip.hash ~height:(i + 1) with
      | Some e -> e.hash
      | None -> "")

(* Lowest tip height over nodes that are up: the last round certified at
   every live node. *)
let live_height (h : Harness.t) : int =
  Array.fold_left
    (fun acc n ->
      if Node.is_down n then acc else min acc (Chain.tip (Node.chain n)).height)
    max_int h.nodes

let slice_events = 2_000

(* Extra deployments built (and discarded) per repetition, so set-up
   time is a median over many builds: one build takes milliseconds. *)
let extra_setups = 15

let drive_net ?(with_stream = true) (w : harness_spec) : net_rep =
  let cfg = w.config in
  let setup () =
    Option.iter rm_rf cfg.store_root;
    let t0 = wall () in
    let h = span "harness.build" (fun () -> Harness.build cfg) in
    span "harness.install_workload" (fun () -> Harness.install_workload h);
    (h, wall () -. t0)
  in
  let discarded = List.init extra_setups (fun _ -> snd (setup ())) in
  let h, setup_s = setup () in
  let t1 = wall () in
  let stream =
    if with_stream then
      span "client.sign_stream" (fun () ->
          make_stream w.stream ~identities:h.identities ~seed:cfg.rng_seed)
    else [||]
  in
  let sign_s = wall () -. t1 in
  let submitted = Array.make (Array.length stream) false in
  inject h stream ~submitted;
  Gc.full_major ();
  let gc0 = Gc.quick_stat () in
  let ts = wall () in
  span "node.start" (fun () -> Array.iter Node.start h.nodes);
  let certified = ref 0 in
  let progressing = ref true in
  while !certified < cfg.rounds && !progressing do
    let n =
      span "engine.run" (fun () ->
          Engine.run h.engine ~until:cfg.max_sim_time ~max_events:slice_events ())
    in
    let height = min cfg.rounds (live_height h) in
    while !certified < height do
      incr certified;
      Spans.mark (Printf.sprintf "round.%d.certified" !certified) ~start:ts ~stop:(wall ())
    done;
    if n = 0 then progressing := false
  done;
  let steady_s = wall () -. ts in
  let gc1 = Gc.quick_stat () in
  (* Run to quiescence, untimed, so the audits see every node finish. *)
  span "engine.run_tail" (fun () -> ignore (Engine.run h.engine ~until:cfg.max_sim_time ()));
  {
    h;
    stream;
    submitted;
    setups = setup_s :: discarded;
    sign_s;
    steady_s;
    gc_minor_words = gc1.minor_words -. gc0.minor_words;
    gc_major = gc1.major_collections - gc0.major_collections;
    hashes = chain_hashes (Node.chain h.nodes.(0)) ~rounds:cfg.rounds;
    completed = !certified >= cfg.rounds;
  }

(* ------------------------------------------------------------------ *)
(* Correctness checks. A failed check is a failed operation: it counts *)
(* in rounds_failed_share and makes the command exit non-zero.         *)
(* ------------------------------------------------------------------ *)

type checks = { rounds_failed : int; failures : string list }

let check_net (w : harness_spec) (r : net_rep) : checks =
  let rounds = w.config.rounds in
  let safety = Harness.audit_safety r.h in
  let churn = Harness.audit_churn r.h in
  let txs = Harness.audit_txs r.h in
  let global =
    List.filter_map
      (fun (ok, name) -> if ok then None else Some name)
      [
        (safety.double_final = [], "safety.double_final");
        (txs.conservation_ok, "txs.conservation_ok");
        (churn.divergent_restarted = [], "churn.divergent_restarted");
        (churn.unfinished = [], "churn.unfinished");
        (r.completed, "steady_state.completed");
      ]
  in
  (* Agreement: every node holds the same certified block at each
     height (every node is honest in these workloads). *)
  let per_node = Array.map (fun n -> chain_hashes (Node.chain n) ~rounds) r.h.nodes in
  let disagree =
    List.init rounds (fun i ->
        let h0 = List.nth per_node.(0) i in
        h0 = "" || Array.exists (fun hs -> List.nth hs i <> h0) per_node)
    |> List.filter Fun.id |> List.length
  in
  let failures = global @ if disagree > 0 then [ "agreement" ] else [] in
  { rounds_failed = (if global <> [] then rounds else disagree); failures }

(* ------------------------------------------------------------------ *)
(* Virtual-time metrics: deterministic at a fixed seed.                 *)
(* ------------------------------------------------------------------ *)

type virt = {
  lat : float array;  (** per-user round completion times, sorted *)
  confirm : float array;  (** payment confirmation times, sorted *)
  valid_submitted : int;
  tx_failed : int;  (** valid payments due a round before the last, never committed *)
  committed : int;  (** transactions in node 0's chain *)
  submitted : int;
  rejoin_max : float;
  crashes : int;
  rejoins : int;
}

let net_virt (w : harness_spec) (r : net_rep) : virt =
  let rounds = w.config.rounds in
  let churn = Harness.audit_churn r.h in
  let txs = Harness.audit_txs r.h in
  (* When node 1 certified each round, in virtual time. *)
  let done1 = Array.make (rounds + 1) infinity in
  List.iter
    (fun (rc : Metrics.round_record) ->
      if rc.user = 1 && Metrics.completed rc && rc.round >= 1 && rc.round <= rounds then
        done1.(rc.round) <- Float.min done1.(rc.round) rc.final_done)
    (Metrics.records r.h.metrics);
  let chain1 = Node.chain r.h.nodes.(1) in
  let height_of = Hashtbl.create 1024 in
  List.iter
    (fun (e : Chain.entry) ->
      List.iter (fun tx -> Hashtbl.replace height_of (Transaction.id tx) e.height) e.block.txs)
    (Chain.ancestry chain1 (Chain.tip chain1).hash);
  (* Valid payments due before round [rounds - 1] started (the median
     user's completion of round [rounds - 2]) must have committed. *)
  let cutoff =
    if rounds < 3 then 0.0
    else
      median
        (List.filter_map
           (fun (rc : Metrics.round_record) ->
             if rc.round = rounds - 2 && Metrics.completed rc then Some rc.final_done else None)
           (Metrics.records r.h.metrics))
  in
  let confirm = ref [] and valid_submitted = ref 0 and failed = ref 0 in
  Array.iteri
    (fun i p ->
      if r.submitted.(i) && p.valid then begin
        incr valid_submitted;
        let committed_at = Hashtbl.find_opt height_of (Transaction.id p.tx) in
        (match committed_at with
        | Some hgt when Float.is_finite done1.(hgt) ->
          confirm := (done1.(hgt) -. p.due) :: !confirm
        | _ -> ());
        if p.due <= cutoff && committed_at = None then incr failed
      end)
    r.stream;
  {
    lat = sorted (Metrics.all_round_completion_times r.h.metrics);
    confirm = sorted !confirm;
    valid_submitted = !valid_submitted;
    tx_failed = !failed;
    committed = txs.committed;
    submitted = Array.fold_left (fun n b -> if b then n + 1 else n) 0 r.submitted;
    rejoin_max = churn.max_rejoin_s;
    crashes = churn.crashes;
    rejoins = churn.rejoins;
  }

(* ------------------------------------------------------------------ *)
(* Per-layer costs, timed on the run's own artifacts.                   *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* One sim-VRF sortition evaluation per (user, role): the population
   sweep's inner loop, timed over [pks]. *)
let sortition_eval_s ~(pks : string array) ~(tau : float) ~(w : int) ~(total_weight : int) :
    float =
  let input = Sortition.vrf_input ~seed:"perfbench" ~role:"committee" in
  let p = tau /. float_of_int total_weight in
  let n = Array.length pks in
  per_call (fun () ->
      for u = 0 to n - 1 do
        match Vrf.sim.verify ~pk:pks.(u) ~input ~proof:"" with
        | Some h -> ignore (Binomial.select_j ~frac:(Sortition.hash_fraction h) ~w ~p)
        | None -> ()
      done)
  /. float_of_int n

(* Engine overhead per event: schedule + pop + dispatch of an empty
   handler, at a queue depth like the run's peak. *)
let engine_event_s ~(depth : int) : float =
  let depth = max 16 (min depth 100_000) in
  let e = Engine.create () in
  let rng = Random.State.make [| 7 |] in
  let rec tick () = Engine.schedule e ~delay:(Random.State.float rng 1.0) tick in
  for _ = 1 to depth do
    Engine.schedule e ~delay:(Random.State.float rng 1.0) tick
  done;
  let events = 200_000 in
  let t0 = wall () in
  ignore (Engine.run e ~max_events:events ());
  (wall () -. t0) /. float_of_int events

let sum_array (a : float array) = Array.fold_left ( +. ) 0.0 a

(* Gossip overlay cost per received copy: the run's own vote frames
   broadcast over a fresh overlay of the same size and wire mode, with
   an accept-all validator and an empty delivery handler, so the time
   is the overlay's (network model, decode, dedup, relay) plus one
   engine event per copy. *)
let gossip_copy_s ~(users : int) ~(codec : Message.t Algorand_netsim.Gossip.codec option)
    (msgs : Message.t list) : float =
  let module Gossip = Algorand_netsim.Gossip in
  let module Network = Algorand_netsim.Network in
  let engine = Engine.create () in
  let rng = Algorand_sim.Rng.create 7 in
  let topology =
    Algorand_netsim.Topology.create ~nodes:users (Algorand_sim.Rng.split rng "topology")
  in
  let net = Network.create ~engine ~topology () in
  let registry = Registry.create () in
  let g =
    Gossip.create ~registry ?codec ~net ~rng:(Algorand_sim.Rng.split rng "gossip")
      ~weights:(Array.make users 1.0)
      {
        Gossip.msg_id = Message.id;
        validate = (fun _ _ -> true);
        deliver = (fun _ ~src:_ _ -> ());
        fanout = 4;
        point_to_point = (fun _ -> false);
      }
  in
  List.iteri
    (fun i msg ->
      Gossip.broadcast g ~node:(i mod users) ~bytes:(Message.size_bytes msg) msg)
    msgs;
  let t0 = wall () in
  ignore (Engine.run engine ());
  let dt = wall () -. t0 in
  let c name = Option.value ~default:0 (Registry.counter_value registry name) in
  let copies = c "gossip.delivered" + c "gossip.duplicates_dropped" in
  if copies = 0 then 0.0 else dt /. float_of_int copies

let counter (h : Harness.t) name =
  float_of_int
    (Option.value ~default:0 (Registry.counter_value (Metrics.registry h.metrics) name))

let net_layers (w : harness_spec) (r : net_rep) (v : virt) : metric list =
  let cfg = w.config in
  let h = r.h in
  let rounds = float_of_int cfg.rounds in
  let users = float_of_int cfg.users in
  let steady = r.steady_s in
  let sig_scheme, vrf_scheme = Harness.schemes cfg.crypto in
  let node0 = h.nodes.(0) in
  let chain0 = Node.chain node0 in
  let entries =
    List.filter_map
      (fun r -> Chain.ancestor_at chain0 ~hash:(Chain.tip chain0).hash ~height:r)
      (List.init cfg.rounds (fun i -> i + 1))
  in
  let certs =
    List.filter_map (fun (e : Chain.entry) -> Node.certificate node0 ~round:e.height) entries
  in
  (* Certificate votes with the context a verifier derives for them. *)
  let cert_votes =
    List.concat_map
      (fun (c : Algorand_core.Certificate.t) ->
        let ctx =
          History.validation_ctx ~params:cfg.params ~sig_scheme ~vrf_scheme ~chain:chain0
            ~round:c.round
        in
        List.map (fun vote -> (ctx, vote)) c.votes)
      certs
  in
  let n_votes = float_of_int (max 1 (List.length cert_votes)) in
  (* ---- counters ---- *)
  let originated = counter h "gossip.originated"
  and relayed = counter h "gossip.relayed"
  and delivered = counter h "gossip.delivered"
  and dups = counter h "gossip.duplicates_dropped"
  and invalid = counter h "gossip.invalid_dropped" in
  let submitted = float_of_int v.submitted in
  let tx_deliveries = submitted *. (users -. 1.0) in
  let vote_deliveries = Float.max 0.0 (delivered -. tx_deliveries) in
  let committed = float_of_int v.committed in
  let events = float_of_int (Engine.events_processed h.engine) in
  let bytes_sent = sum_array (Metrics.bytes_sent h.metrics) in
  let bytes_recv = sum_array (Metrics.bytes_received h.metrics) in
  (* ---- sortition: checked inside vote validation, costed as crypto ---- *)
  let selected =
    List.fold_left
      (fun acc (c : Algorand_core.Certificate.t) -> acc + List.length c.votes)
      0 certs
  in
  (* ---- crypto ---- *)
  let vote_validate =
    span "layer.crypto.vote_validate" (fun () ->
        per_call (fun () ->
            List.iter (fun (ctx, vote) -> ignore (Vote.validate ctx vote)) cert_votes)
        /. n_votes)
  in
  let block_txs = List.map (fun (e : Chain.entry) -> e.block.txs) entries in
  let n_block_txs = float_of_int (List.fold_left (fun a l -> a + List.length l) 0 block_txs) in
  let tx_verify =
    if n_block_txs = 0.0 then 0.0
    else
      span "layer.crypto.tx_verify_batch" (fun () ->
          per_call (fun () ->
              List.iter
                (fun txs ->
                  ignore
                    (Transaction.verify_batch ~sig_pk_of:Identity.sig_pk ~scheme:sig_scheme
                       txs))
                block_txs)
          /. n_block_txs)
  in
  let tx_sign =
    if Array.length r.stream = 0 then 0.0 else r.sign_s /. float_of_int (Array.length r.stream)
  in
  (* Vote creation (sortition proof + signature) by every committee
     member, timed for each identity on round 1's first BinaryBA* step. *)
  let vote_make =
    match cert_votes with
    | [] -> 0.0
    | (ctx, vote) :: _ ->
      let make () =
        Array.iter
          (fun (id : Identity.t) ->
            ignore
              (Vote.make ~signer:id.signer ~prover:id.prover ~pk:id.pk ~seed:ctx.seed
                 ~tau:cfg.params.tau_step ~w:(ctx.weight_of id.pk)
                 ~total_weight:ctx.total_weight
                 ~round:vote.round ~step:(Vote.Bin 1) ~prev_hash:ctx.last_block_hash
                 ~value:vote.value))
          h.identities
      in
      span "layer.crypto.vote_make" (fun () -> per_call make /. float_of_int cfg.users)
  in
  let votes_made = vote_deliveries /. Float.max 1.0 (users -. 1.0) in
  (* Every node checks each committed block's transactions, and every
     proposer batch-checks its pool candidates when it assembles a block;
     proposers per round are expected from the proposer committee size
     (equal stakes). *)
  let proposers =
    let p = cfg.params.tau_proposer /. float_of_int (cfg.stake_per_user * cfg.users) in
    users *. (1.0 -. Binomial.cdf ~k:0 ~n:cfg.stake_per_user ~p)
  in
  let crypto_busy =
    ((vote_validate *. vote_deliveries)
    +. (vote_make *. votes_made)
    +. (tx_verify *. committed *. (users +. proposers)))
    /. steady
  in
  (* ---- ba ---- *)
  let vote_weights =
    List.map (fun (ctx, (vote : Vote.t)) -> (vote, Vote.validate ctx vote)) cert_votes
  in
  let vote_count =
    span "layer.ba.vote_count" (fun () ->
        per_call (fun () ->
            let c = Vote_counter.create ~threshold:(Params.step_threshold cfg.params) in
            List.iter
              (fun ((vote : Vote.t), wt) ->
                ignore
                  (Vote_counter.add c ~pk:vote.voter_pk ~votes:wt ~value:vote.value
                     ~sorthash:vote.sorthash))
              vote_weights)
        /. n_votes)
  in
  let steps_max =
    List.fold_left
      (fun acc (rc : Metrics.round_record) -> max acc rc.steps_taken)
      0 (Metrics.records h.metrics)
  in
  let ba_busy = vote_count *. vote_deliveries /. steady in
  (* ---- ledger ---- *)
  let apply_block =
    span "layer.ledger.apply_block" (fun () ->
        per_call (fun () ->
            List.iter
              (fun (e : Chain.entry) ->
                match Chain.find chain0 e.parent with
                | Some parent -> ignore (Balances.apply_block parent.balances_after e.block.txs)
                | None -> ())
              entries)
        /. float_of_int (max 1 (List.length entries)))
  in
  let pool_txs =
    Array.to_list r.stream
    |> List.filteri (fun i _ -> r.submitted.(i))
    |> List.map (fun p -> p.tx)
  in
  let txpool_add =
    if pool_txs = [] then 0.0
    else
      span "layer.ledger.txpool_add" (fun () ->
          per_call (fun () ->
              let pool = Txpool.create () in
              List.iter (fun tx -> ignore (Txpool.add pool tx)) pool_txs)
          /. float_of_int (List.length pool_txs))
  in
  let ledger_busy =
    ((apply_block *. users *. rounds) +. (txpool_add *. submitted *. users)) /. steady
  in
  (* ---- codec ---- *)
  (* Frames are costed by their encoded bytes. A block's padding is
     declared on the wire, not encoded, so the number of block copies
     received is recovered from the modelled bytes: every copy carries
     a vote-sized frame except block copies, which add the padding. *)
  let codec_on = cfg.wire = `Bytes in
  let limits = Codec.limits_of_params ~block_bytes:cfg.block_bytes cfg.params in
  let block_frames = List.map (fun (e : Chain.entry) -> Message.Block_gossip e.block) entries in
  let small_frames = List.map (fun (_, vote) -> Message.Ba_vote vote) cert_votes in
  let kib frames =
    float_of_int (List.fold_left (fun a f -> a + String.length (Codec.encode f)) 0 frames)
    /. 1024.0
  in
  let block_kib = kib block_frames and small_kib = kib small_frames in
  let cost frames =
    let encoded = List.map Codec.encode frames in
    ( per_call (fun () -> List.iter (fun f -> ignore (Codec.encode f)) frames),
      per_call (fun () -> List.iter (fun s -> ignore (Codec.decode ~limits s)) encoded) )
  in
  let (enc_b, dec_b), (enc_s, dec_s) =
    span "layer.codec" (fun () -> (cost block_frames, cost small_frames))
  in
  let per_kib x k = if k = 0.0 then 0.0 else x /. k in
  let copies = delivered +. dups +. invalid in
  let n_blocks = float_of_int (max 1 (List.length entries)) in
  let n_small = float_of_int (max 1 (List.length small_frames)) in
  let small_frame_kib = small_kib /. n_small and block_frame_kib = block_kib /. n_blocks in
  let padding =
    List.fold_left (fun a (e : Chain.entry) -> a + e.block.padding) 0 entries
    |> float_of_int
    |> fun p -> p /. n_blocks
  in
  let block_copies =
    if padding <= 0.0 then 0.0
    else
      Float.min copies
        (Float.max 0.0 ((bytes_recv -. (copies *. small_frame_kib *. 1024.0)) /. padding))
  in
  let decoded_block_kib = block_copies *. block_frame_kib in
  let decoded_small_kib = (copies -. block_copies) *. small_frame_kib in
  let encoded_small_kib = originated *. small_frame_kib in
  let codec_busy =
    if not codec_on then 0.0
    else
      ((per_kib dec_b block_kib *. decoded_block_kib)
      +. (per_kib dec_s small_kib *. decoded_small_kib)
      +. (per_kib enc_s small_kib *. encoded_small_kib)
      +. (enc_b *. float_of_int cfg.rounds /. n_blocks))
      /. steady
  in
  let all_kib = block_kib +. small_kib in
  let encode_per_kib = per_kib (enc_b +. enc_s) all_kib in
  let decode_per_kib = per_kib (dec_b +. dec_s) all_kib in
  (* ---- gossip overlay ---- *)
  let codec =
    if codec_on then
      Some { Algorand_netsim.Gossip.enc = Codec.encode; dec = Codec.decode ~limits }
    else None
  in
  let overlay_copy =
    span "layer.gossip.overlay" (fun () ->
        gossip_copy_s ~users:cfg.users ~codec
          (List.map (fun (_, v) -> Message.Ba_vote v) cert_votes))
  in
  (* Net of the parts costed elsewhere: one engine event and, on the
     bytes wire, one vote-frame decode per copy. *)
  let peak = Engine.peak_pending h.engine in
  let event_s = span "layer.sim.engine" (fun () -> engine_event_s ~depth:peak) in
  let copy_own =
    Float.max 0.0
      (overlay_copy -. event_s
      -. if codec_on then per_kib dec_s small_kib *. small_frame_kib else 0.0)
  in
  let gossip_busy = copy_own *. copies /. steady in
  (* ---- storage ---- *)
  let storage_on = cfg.store_root <> None && cfg.checkpoint_every > 0 in
  let save_s, load_s, bytes_per_round =
    if not storage_on then (0.0, 0.0, 0.0)
    else begin
      let dir = Filename.concat (Option.get cfg.store_root) "perfbench-copy" in
      let items =
        List.filter_map
          (fun (e : Chain.entry) ->
            Option.map
              (fun c -> { History.block = e.block; certificate = c })
              (Node.certificate node0 ~round:e.height))
          entries
      in
      span "layer.storage" (fun () ->
          rm_rf dir;
          let save =
            per_call (fun () -> List.iter (fun it -> Disk_store.save dir [ it ]) items)
            /. float_of_int (max 1 (List.length items))
          in
          let load = per_call (fun () -> ignore (Disk_store.load dir)) in
          let size = float_of_int (Disk_store.size_bytes dir) in
          rm_rf dir;
          (save, load, size /. rounds))
    end
  in
  let restarts = float_of_int (Metrics.restarts h.metrics) in
  let storage_busy = ((save_s *. users *. rounds) +. (load_s *. restarts)) /. steady in
  let sim_busy = event_s *. events /. steady in
  let per_round x = x /. rounds in
  [
    m "sortition.selected_per_round" "count" (per_round (float_of_int selected));
    m "crypto.vote_validate_us" "us" (vote_validate *. 1e6);
    m "crypto.vote_make_us" "us" (vote_make *. 1e6);
    m "crypto.tx_verify_batch_us" "us" (tx_verify *. 1e6);
    m "crypto.tx_sign_us" "us" (tx_sign *. 1e6);
    m "crypto.busy_share" "share" crypto_busy;
    m "sim.events_per_round" "count" (per_round events);
    m "sim.events_per_s" "1/s" (events /. steady);
    m "sim.peak_pending" "count" (float_of_int peak);
    m "sim.event_ns" "ns" (event_s *. 1e9);
    m "sim.busy_share" "share" sim_busy;
    m "gossip.originated_per_round" "count" (per_round originated);
    m "gossip.relayed_per_round" "count" (per_round relayed);
    m "gossip.delivered_per_round" "count" (per_round delivered);
    m "gossip.duplicates_dropped_per_round" "count" (per_round dups);
    m "gossip.invalid_dropped_per_round" "count" (per_round invalid);
    m "gossip.useful_ratio" "share"
      (if delivered +. dups = 0.0 then 0.0 else delivered /. (delivered +. dups));
    m "gossip.copy_us" "us" (copy_own *. 1e6);
    m "gossip.busy_share" "share" gossip_busy;
    m "net.bytes_sent_per_user_per_round" "B" (bytes_sent /. users /. rounds);
    m "ba.steps_per_round_max" "count" (float_of_int steps_max);
    m "ba.vote_count_us" "us" (vote_count *. 1e6);
    m "ba.busy_share" "share" ba_busy;
    m "ledger.apply_block_ms" "ms" (apply_block *. 1e3);
    m "ledger.txs_per_block" "count" (per_round committed);
    m "ledger.txpool_add_us" "us" (txpool_add *. 1e6);
    m "ledger.rejected_share" "share"
      (if submitted = 0.0 then 0.0 else 1.0 -. (committed /. submitted));
    m "ledger.busy_share" "share" ledger_busy;
    m "codec.encode_us_per_kib" "us/KiB" (if codec_on then encode_per_kib *. 1e6 else 0.0);
    m "codec.decode_us_per_kib" "us/KiB" (if codec_on then decode_per_kib *. 1e6 else 0.0);
    m "codec.decodes_per_round" "count" (if codec_on then per_round copies else 0.0);
    m "codec.busy_share" "share" codec_busy;
    m "storage.save_ms" "ms" (save_s *. 1e3);
    m "storage.load_ms" "ms" (load_s *. 1e3);
    m "storage.bytes_per_round" "B" bytes_per_round;
    m "storage.busy_share" "share" storage_busy;
  ]

(* ------------------------------------------------------------------ *)
(* Population workload.                                                 *)
(* ------------------------------------------------------------------ *)

(* The public calls Population.run makes before round 1: one identity
   per user and the genesis. Returns the users' VRF public keys. *)
let pop_setup (cfg : Population.config) : string array =
  span "population.setup" (fun () ->
      let ids =
        Array.init cfg.users (fun i ->
            Identity.generate ~sig_scheme:Signature_scheme.sim ~vrf_scheme:Vrf.sim
              ~seed:(Printf.sprintf "user-%d-%d" cfg.rng_seed i))
      in
      ignore
        (Genesis.make
           (Array.to_list
              (Array.map (fun (id : Identity.t) -> (id.pk, cfg.stake_per_user)) ids)));
      Array.map (fun (id : Identity.t) -> Identity.vrf_pk id.pk) ids)

type pop_rep = {
  res : Population.result;
  setups : float list;
  pop_steady_s : float;
  pop_minor_words : float;
  pop_major : int;
  vrf_pks : string array;  (** a sample of the population's keys, for layer timings *)
}

let drive_pop (cfg : Population.config) : pop_rep =
  let t0 = wall () in
  let vrf_pks = Array.sub (pop_setup cfg) 0 (min cfg.users 20_000) in
  let setup_s = wall () -. t0 in
  let gc0 = Gc.quick_stat () in
  let t0 = wall () in
  let res = span "population.run" (fun () -> Population.run cfg) in
  let run_s = wall () -. t0 in
  let gc1 = Gc.quick_stat () in
  {
    res;
    setups = [ setup_s ];
    pop_steady_s = run_s -. setup_s;
    pop_minor_words = gc1.minor_words -. gc0.minor_words;
    pop_major = gc1.major_collections - gc0.major_collections;
    vrf_pks;
  }

let check_pop (cfg : Population.config) (r : pop_rep) : checks =
  let certified = List.length r.res.block_hashes in
  let failures =
    (if r.res.agreement then [] else [ "agreement" ])
    @ if certified = cfg.rounds then [] else [ "rounds_certified" ]
  in
  {
    rounds_failed = (if r.res.agreement then cfg.rounds - certified else cfg.rounds);
    failures;
  }

let pop_layers (cfg : Population.config) (r : pop_rep) : metric list =
  let rounds = float_of_int (max 1 (List.length r.res.round_stats)) in
  let n = cfg.users in
  let total_weight = n * cfg.stake_per_user in
  let roles = 4 + cfg.bin_window in
  let eval =
    span "layer.sortition.eval" (fun () ->
        sortition_eval_s ~pks:r.vrf_pks ~tau:cfg.params.tau_step ~w:cfg.stake_per_user
          ~total_weight)
  in
  let evals_per_round = float_of_int (n * roles) in
  let selected =
    List.fold_left (fun a (s : Population.round_stat) -> a + s.eligible) 0 r.res.round_stats
  in
  let steps_max =
    List.fold_left
      (fun a (s : Population.round_stat) -> max a s.max_bin_steps)
      0 r.res.round_stats
  in
  (* Vote counting over synthetic one-weight votes from the population's
     own keys (the population engine exposes no certificates). *)
  let voters = Array.sub r.vrf_pks 0 (min (Array.length r.vrf_pks) 1_000) in
  let vote_count =
    span "layer.ba.vote_count" (fun () ->
        per_call (fun () ->
            let c = Vote_counter.create ~threshold:(Params.step_threshold cfg.params) in
            Array.iter
              (fun pk -> ignore (Vote_counter.add c ~pk ~votes:1 ~value:"block" ~sorthash:pk))
              voters)
        /. float_of_int (Array.length voters))
  in
  let events = float_of_int r.res.total_events in
  let event_s = span "layer.sim.engine" (fun () -> engine_event_s ~depth:r.res.peak_pending) in
  let steady = r.pop_steady_s in
  [
    m "sortition.eval_ns" "ns" (eval *. 1e9);
    m "sortition.evals_per_round" "count" evals_per_round;
    m "sortition.selected_per_round" "count" (float_of_int selected /. rounds);
    m "sortition.busy_share" "share" (eval *. evals_per_round *. rounds /. steady);
    m "sim.events_per_round" "count" (events /. rounds);
    m "sim.events_per_s" "1/s" (events /. steady);
    m "sim.peak_pending" "count" (float_of_int r.res.peak_pending);
    m "sim.event_ns" "ns" (event_s *. 1e9);
    m "sim.busy_share" "share" (event_s *. events /. steady);
    m "net.bytes_sent_per_user_per_round" "B"
      (List.fold_left
         (fun a (s : Population.round_stat) -> a +. s.modeled_bytes_per_user)
         0.0 r.res.round_stats
      /. rounds);
    m "ba.steps_per_round_max" "count" (float_of_int steps_max);
    m "ba.vote_count_us" "us" (vote_count *. 1e6);
  ]

(* ------------------------------------------------------------------ *)
(* Repetitions and aggregation.                                         *)
(* ------------------------------------------------------------------ *)

type rep = {
  traced : bool;
  setups : float list;
  steady_s : float;
  host_scale : float;  (** [Host_speed.scale] over the repetition's wall window *)
  layer_steady_s : float;  (** steady time of the deployment the layers are costed on *)
  hashes : string list;
  checks : checks;
  minor_words : float;
  major : int;
  v : virt;
  window_exceeded : int;
  layers : (steady:float -> metric list) option;
      (** per-layer costs, computed once the untraced wall time is known *)
}

let no_payments (lat : float array) : virt =
  {
    lat;
    confirm = [||];
    valid_submitted = 0;
    tx_failed = 0;
    committed = 0;
    submitted = 0;
    rejoin_max = 0.0;
    crashes = 0;
    rejoins = 0;
  }

(* Deployments of one workload run back to back; their work and samples
   pool, and the per-layer costs come from the first. *)
let pool (a : rep) (b : rep) : rep =
  let merge x y = sorted (Array.to_list x @ Array.to_list y) in
  {
    a with
    setups = a.setups @ b.setups;
    steady_s = a.steady_s +. b.steady_s;
    hashes = a.hashes @ b.hashes;
    checks =
      {
        rounds_failed = a.checks.rounds_failed + b.checks.rounds_failed;
        failures = List.sort_uniq compare (a.checks.failures @ b.checks.failures);
      };
    minor_words = a.minor_words +. b.minor_words;
    major = a.major + b.major;
    v =
      {
        lat = merge a.v.lat b.v.lat;
        confirm = merge a.v.confirm b.v.confirm;
        valid_submitted = a.v.valid_submitted + b.v.valid_submitted;
        tx_failed = a.v.tx_failed + b.v.tx_failed;
        committed = a.v.committed + b.v.committed;
        submitted = a.v.submitted + b.v.submitted;
        rejoin_max = Float.max a.v.rejoin_max b.v.rejoin_max;
        crashes = a.v.crashes + b.v.crashes;
        rejoins = a.v.rejoins + b.v.rejoins;
      };
    window_exceeded = a.window_exceeded + b.window_exceeded;
  }

let run_rep (spec : spec) ~(traced : bool) : rep =
  match spec with
  | Pop config ->
    let r = drive_pop config in
    let lat =
      sorted (List.map (fun (s : Population.round_stat) -> s.latency_s) r.res.round_stats)
    in
    {
      traced;
      setups = r.setups;
      steady_s = r.pop_steady_s;
      host_scale = 1.0;
      layer_steady_s = r.pop_steady_s;
      hashes = r.res.block_hashes;
      checks = check_pop config r;
      minor_words = r.pop_minor_words;
      major = r.pop_major;
      v = no_payments lat;
      window_exceeded = r.res.window_exceeded_rounds;
      layers =
        (if traced then Some (fun ~steady -> pop_layers config { r with pop_steady_s = steady })
         else None);
    }
  | Net members ->
    let member k (w : harness_spec) =
      let r = drive_net w in
      let v = net_virt w r in
      {
        traced;
        setups = r.setups;
        steady_s = r.steady_s;
        host_scale = 1.0;
        layer_steady_s = r.steady_s;
        hashes = r.hashes;
        checks = check_net w r;
        minor_words = r.gc_minor_words;
        major = r.gc_major;
        v;
        window_exceeded = 0;
        layers =
          (if traced && k = 0 then
             Some (fun ~steady -> net_layers w { r with steady_s = steady } v)
           else None);
      }
    in
    (match List.mapi member members with
    | first :: rest -> List.fold_left pool first rest
    | [] -> invalid_arg "run_rep: workload without deployments")

(* Whole-run metrics from the virtual-time samples and counts. *)
let virt_metrics (v : virt) ~(window_exceeded : int) : metric list =
  let count name n = m name "count" (float_of_int n) in
  [
    count "round_latency_sim_s_samples" (Array.length v.lat);
    m "tx_confirm_sim_s_p50" "sim-s" (quantile v.confirm 0.5);
    count "tx_confirm_sim_s_samples" (Array.length v.confirm);
    m "tx_failed_share" "share"
      (if v.valid_submitted = 0 then 0.0
       else float_of_int v.tx_failed /. float_of_int v.valid_submitted);
    count "tx_valid_submitted" v.valid_submitted;
    m "rejoin_sim_s_max" "sim-s" v.rejoin_max;
    count "churn.crashes" v.crashes;
    count "churn.rejoins" v.rejoins;
    count "window_exceeded_rounds" window_exceeded;
  ]
  @ List.concat_map
      (fun (name, a) ->
        if p90_reportable (Array.length a) then [ m name "sim-s" (quantile a 0.9) ] else [])
      [ ("round_latency_sim_s_p90", v.lat); ("tx_confirm_sim_s_p90", v.confirm) ]

(* Repeat the workload until the next repetition would overrun
   [seconds]; at least one repetition, and with tracing on, untraced and
   traced repetitions alternate (at least one of each). Also returns the
   heap high-water mark after the first repetition, so peak heap does
   not depend on how many repetitions fit. *)
let run_reps (spec : spec) ~(seconds : float) ~(trace : bool) : rep list * int =
  let start = wall () in
  let reps = ref [] and longest = ref 0.0 and first_peak = ref 0 in
  let min_reps = if trace then 2 else 1 in
  let i = ref 0 in
  while
    List.length !reps < min_reps || wall () -. start +. !longest <= seconds
  do
    let traced = trace && !i mod 2 = 1 in
    Gc.compact ();
    let t0 = wall () in
    Spans.enabled := traced;
    let r = span "repetition" (fun () -> run_rep spec ~traced) in
    let r = { r with host_scale = Host_speed.scale t0 (wall ()) } in
    Spans.enabled := false;
    longest := Float.max !longest (wall () -. t0);
    if !reps = [] then first_peak := (Gc.quick_stat ()).top_heap_words;
    reps := r :: !reps;
    incr i
  done;
  (List.rev !reps, !first_peak)

(* ------------------------------------------------------------------ *)
(* Output.                                                              *)
(* ------------------------------------------------------------------ *)

let json_num (x : float) : string =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let json_metrics (l : metric list) : string =
  "{"
  ^ String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name (json_num x.value)
             x.unit_)
         l)
  ^ "}"

let find (l : metric list) name = List.find_opt (fun x -> x.name = name) l

(* Name and unit of every per-layer metric. A layer the workload does
   not exercise reports 0, and the report lists it as not exercised. *)
let per_layer =
  [
    ("sortition.eval_ns", "ns"); ("sortition.evals_per_round", "count");
    ("sortition.selected_per_round", "count"); ("sortition.busy_share", "share");
    ("crypto.vote_validate_us", "us"); ("crypto.vote_make_us", "us");
    ("crypto.tx_verify_batch_us", "us"); ("crypto.tx_sign_us", "us");
    ("crypto.busy_share", "share"); ("sim.events_per_round", "count");
    ("sim.events_per_s", "1/s"); ("sim.peak_pending", "count"); ("sim.event_ns", "ns");
    ("sim.busy_share", "share"); ("gossip.originated_per_round", "count");
    ("gossip.relayed_per_round", "count"); ("gossip.delivered_per_round", "count");
    ("gossip.duplicates_dropped_per_round", "count");
    ("gossip.invalid_dropped_per_round", "count"); ("gossip.useful_ratio", "share");
    ("gossip.copy_us", "us"); ("gossip.busy_share", "share");
    ("net.bytes_sent_per_user_per_round", "B"); ("ba.steps_per_round_max", "count");
    ("ba.vote_count_us", "us"); ("ba.busy_share", "share"); ("ledger.apply_block_ms", "ms");
    ("ledger.txs_per_block", "count"); ("ledger.txpool_add_us", "us");
    ("ledger.rejected_share", "share"); ("ledger.busy_share", "share");
    ("codec.encode_us_per_kib", "us/KiB"); ("codec.decode_us_per_kib", "us/KiB");
    ("codec.decodes_per_round", "count"); ("codec.busy_share", "share");
    ("storage.save_ms", "ms"); ("storage.load_ms", "ms"); ("storage.bytes_per_round", "B");
    ("storage.busy_share", "share"); ("gc.minor_mwords_per_round", "Mwords");
    ("gc.major_collections_per_round", "count"); ("steady_s", "s");
    ("committed_tx_per_s", "tx/s"); ("tx_confirm_sim_s_p50", "sim-s");
    ("tx_confirm_sim_s_samples", "count"); ("tx_failed_share", "share");
    ("rounds_failed_share", "share"); ("rejoin_sim_s_max", "sim-s");
    ("round_latency_sim_s_samples", "count"); ("attributed_share", "share");
    ("trace.overhead_share", "share");
  ]

let main ~workload ~seed ~seconds ~trace ~out_dir ~revision : int =
  let run_dir = Filename.concat out_dir (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Unix.mkdir run_dir 0o755;
  Host_speed.start ();
  Fun.protect
    ~finally:(fun () ->
      Host_speed.stop ();
      rm_rf run_dir)
  @@ fun () ->
  let spec = spec_of ~name:workload ~seed ~out_dir:run_dir in
  let reps, peak_words = run_reps spec ~seconds ~trace in
  let untraced = List.filter (fun r -> not r.traced) reps in
  let traced = List.filter (fun r -> r.traced) reps in
  let first = List.hd reps in
  let rounds =
    match spec with
    | Pop config -> config.rounds
    | Net ws -> List.fold_left (fun a (w : harness_spec) -> a + w.config.rounds) 0 ws
  in
  (* Every repetition does the same work. The wall metrics take each
     repetition's times on the nominal host (Host_speed), then the median
     repetition, so neither the host's drift nor a slow repetition moves
     them. *)
  let steady = median (List.map (fun r -> r.steady_s *. r.host_scale) untraced) in
  let setup =
    median (List.concat_map (fun r -> List.map (fun x -> x *. r.host_scale) r.setups) untraced)
  in
  let steady_wall = median (List.map (fun r -> r.steady_s) untraced) in
  let deterministic = List.for_all (fun r -> r.hashes = first.hashes) reps in
  let failures =
    List.sort_uniq compare
      (List.concat_map (fun r -> r.checks.failures) reps
      @ if deterministic then [] else [ "determinism" ])
  in
  let rounds_failed = if deterministic then first.checks.rounds_failed else rounds in
  let correct = failures = [] in
  let med_of f = median (List.map f untraced) in
  let e2e =
    [
      m "setup_s" "s" setup;
      m "rounds_per_s" "1/s" (float_of_int rounds /. steady);
      m "round_latency_sim_s_p50" "sim-s" (quantile first.v.lat 0.5);
      m "peak_heap_mb" "MB" (float_of_int (peak_words * (Sys.word_size / 8)) /. 1e6);
    ]
  in
  let whole =
    [
      m "steady_s" "s" steady_wall;
      m "steady_nominal_s" "s" steady;
      m "host_kernel_ms" "ms" (Host_speed.mean_between 0.0 infinity *. 1e3);
      m "committed_tx_per_s" "tx/s" (float_of_int first.v.committed /. steady);
      m "rounds_failed_share" "share" (float_of_int rounds_failed /. float_of_int rounds);
      m "gc.minor_mwords_per_round" "Mwords"
        (med_of (fun r -> r.minor_words) /. 1e6 /. float_of_int rounds);
      m "gc.major_collections_per_round" "count"
        (med_of (fun r -> float_of_int r.major) /. float_of_int rounds);
      m "repetitions" "count" (float_of_int (List.length untraced));
    ]
    @ virt_metrics first.v ~window_exceeded:first.window_exceeded
  in
  let layers =
    match List.rev traced with
    | { layers = Some f; _ } :: _ ->
      let layer_steady = median (List.map (fun r -> r.layer_steady_s) untraced) in
      let l = span "layers" (fun () -> f ~steady:layer_steady) in
      let busy =
        List.fold_left
          (fun a x ->
            if String.length x.name > 11
               && String.sub x.name (String.length x.name - 11) 11 = ".busy_share"
            then a +. x.value
            else a)
          0.0 l
      in
      let traced_steady = median (List.map (fun r -> r.steady_s) traced) in
      l
      @ [
          m "attributed_share" "share" busy;
          m "trace.overhead_share" "share" ((traced_steady /. steady_wall) -. 1.0);
        ]
    | _ -> []
  in
  let stamp =
    Printf.sprintf
      "{\"workload\": %S, \"seed\": %d, \"trace\": %d, \"cores\": %d, \"ocaml\": %S, \
       \"revision\": %S, \"host\": %S, \"seconds\": %s, \"network\": %S}"
      workload seed (if trace then 1 else 0)
      (Domain.recommended_domain_count ())
      Sys.ocaml_version revision (Unix.gethostname ()) (json_num seconds)
      (match spec with
      | Pop _ -> "population direct delivery, modelled relay hops (1..ceil(log4 N)), 20 Mbit/s"
      | Net _ -> "harness 20-city WAN, 20 Mbit/s, gossip fanout 4")
  in
  let measured = whole @ layers in
  let not_exercised =
    if trace then List.filter (fun (n, _) -> find measured n = None) per_layer else []
  in
  let json_names l = String.concat ", " (List.map (Printf.sprintf "%S") l) in
  let report =
    Printf.sprintf
      "{\"record\": %s, \"correct\": %b, \"failures\": [%s], \"end_to_end\": %s, \
       \"whole_run\": %s, \"repetition_steady_s\": [%s], \"per_layer\": %s, \
       \"not_exercised\": [%s], \"span_self_s\": {%s}}"
      stamp correct (json_names failures) (json_metrics e2e) (json_metrics whole)
      (String.concat ", " (List.map (fun r -> json_num r.steady_s) untraced))
      (json_metrics layers)
      (json_names (List.map fst not_exercised))
      (String.concat ", "
         (List.map
            (fun (k, v) -> Printf.sprintf "%S: %s" k (json_num v))
            (Spans.self_times ())))
  in
  let base =
    Filename.concat out_dir
      (Printf.sprintf "%s-seed%d-trace%d" workload seed (if trace then 1 else 0))
  in
  let oc = open_out (base ^ ".json") in
  output_string oc (report ^ "\n");
  close_out oc;
  if trace then Spans.write (base ^ ".spans.jsonl");
  print_endline report;
  let printed =
    if trace then
      List.map (fun (n, u) -> Option.value (find measured n) ~default:(m n u 0.0)) per_layer
    else e2e
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!"
    correct rounds rounds_failed (json_metrics printed);
  if correct then 0 else 1

(* The benchmark-driven run must certify the same blocks as the plain
   entry point at the same config and seed. *)
let self_test ~workload ~seed ~out_dir : int =
  let run_dir = Filename.concat out_dir (Printf.sprintf "selftest-%d" (Unix.getpid ())) in
  Unix.mkdir run_dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf run_dir) (fun () ->
      let driven, plain, audit =
        match spec_of ~name:workload ~seed ~out_dir:run_dir with
        | Pop config ->
          let r = drive_pop config in
          let p = Population.run config in
          (r.res.block_hashes, p.block_hashes, if p.agreement then [] else [ "agreement" ])
        | Net members ->
          let results =
            List.map
              (fun (w : harness_spec) ->
                let r = drive_net ~with_stream:false w in
                Option.iter rm_rf w.config.store_root;
                let p = Harness.run w.config in
                ( r.hashes,
                  chain_hashes (Node.chain p.harness.nodes.(0)) ~rounds:w.config.rounds,
                  (check_net w { r with h = p.harness; completed = true }).failures ))
              members
          in
          ( List.concat_map (fun (d, _, _) -> d) results,
            List.concat_map (fun (_, p, _) -> p) results,
            List.sort_uniq compare (List.concat_map (fun (_, _, a) -> a) results) )
      in
      let same = driven = plain && not (List.mem "" driven) in
      let ok = same && audit = [] in
      Printf.printf
        "self-test %s seed %d: %s (%d rounds, tip %s, driven %s plain, plain-run checks: %s)\n"
        workload seed
        (if ok then "PASS" else "FAIL")
        (List.length driven)
        (match List.rev driven with
        | h :: _ -> Algorand_crypto.Hex.of_string (String.sub h 0 (min 4 (String.length h)))
        | [] -> "-")
        (if same then "==" else "<>")
        (if audit = [] then "ok" else String.concat ", " audit);
      if ok then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let out_dir = ref "perfbench/_out" and revision = ref "unknown" and selftest = ref false in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME one of " ^ String.concat ", " workload_names );
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measurement time");
      ("--trace", Arg.Set_int trace, "0|1 traced run (per-layer metrics)");
      ("--out", Arg.Set_string out_dir, "DIR reports, spans and scratch state");
      ("--revision", Arg.Set_string revision, "REV source revision stamped on the record");
      ("--self-test", Arg.Set selftest, " compare against the plain entry point");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "algobench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workload_names) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  if not (Sys.file_exists !out_dir) then Unix.mkdir !out_dir 0o755;
  exit
    (if !selftest then
       self_test ~workload:!workload ~seed:!seed ~out_dir:!out_dir
     else
       main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
         ~out_dir:!out_dir ~revision:!revision)
