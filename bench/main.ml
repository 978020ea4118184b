(* The evaluation harness: regenerates every table and figure of the
   paper's section 10 (at simulation scale) plus microbenchmarks of the
   cryptographic and sortition primitives, and two ablations.

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- fig5 fig7    # selected experiments
     SCALE=2 dune exec bench/main.exe -- fig5 # 2x the simulated users

   Experiments: micro micro-check fig3 fig4 fig5 fig6 fig7 fig8
                throughput related-work costs timeouts analysis
                ablation-committee ablation-pipeline ablation-fanout
                sim sim-check ledger ledger-check

   `micro` re-measures the crypto primitives and refreshes
   results/BENCH_crypto.json; `micro-check` is the CI smoke gate that
   fails (exit 1) when ed25519/verify regresses >2x vs the committed
   snapshot. `sim` sweeps the population engine to a million users and
   refreshes results/BENCH_sim.json; `sim-check` is its CI gate (100k
   users, fails on a >2x rounds/sec regression).

   The x-axes are scaled down from the paper's 1,000-VM deployment (see
   DESIGN.md section 2 and EXPERIMENTS.md): committee parameters stay at
   paper scale, user counts are simulation-sized. Expected *shapes*, not
   absolute values, are the reproduction target. *)

module Committee = Algorand_sortition.Committee
module Params = Algorand_ba.Params
module Harness = Algorand_core.Harness
module Node = Algorand_core.Node
module Certificate = Algorand_core.Certificate
module Metrics = Algorand_sim.Metrics
module Stats = Algorand_sim.Stats
module Nakamoto = Algorand_baselines.Nakamoto
open Algorand_crypto

let scale =
  match Sys.getenv_opt "SCALE" with
  | Some s -> ( try max 1 (int_of_string s) with _ -> 1)
  | None -> 1

let header title =
  Printf.printf "\n=== %s ===\n%!" title

let pp_summary (s : Stats.summary) =
  Printf.sprintf "min=%6.2f p25=%6.2f med=%6.2f p75=%6.2f max=%6.2f (n=%d)" s.min s.p25
    s.median s.p75 s.max s.count

(* Each sweep also lands in results/<name>.csv for plotting. *)
let csv_dir = "results"

let csv_out (name : string) (header : string) (rows : string list) : unit =
  (try if not (Sys.file_exists csv_dir) then Sys.mkdir csv_dir 0o755 with Sys_error _ -> ());
  try
    let oc = open_out (Filename.concat csv_dir (name ^ ".csv")) in
    output_string oc (header ^ "\n");
    List.iter (fun r -> output_string oc (r ^ "\n")) rows;
    close_out oc
  with Sys_error _ -> ()

let check_safety name (r : Harness.result) =
  if r.safety.double_final <> [] then
    Printf.printf "!! SAFETY VIOLATION in %s: double-final rounds %s\n" name
      (String.concat "," (List.map string_of_int r.safety.double_final))

(* ------------------------------------------------------------------ *)
(* Microbenchmarks (Bechamel + manual loops for the heavy composites). *)
(* Emits results/BENCH_crypto.json; `micro-check` is the smoke-mode    *)
(* regression gate CI runs against the committed snapshot.             *)
(* ------------------------------------------------------------------ *)

(* Bechamel OLS estimate (ns/op) for one closure. *)
let bechamel_ns (name : string) (f : unit -> 'a) : float =
  let open Bechamel in
  let open Toolkit in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let test = Test.make ~name (Staged.stage f) in
  let results = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
  let analyzed = Analyze.all ols instance results in
  let out = ref Float.nan in
  Hashtbl.iter
    (fun _ r -> match Analyze.OLS.estimates r with Some [ ns ] -> out := ns | _ -> ())
    analyzed;
  !out

(* Wall-clock ns/op for operations too slow to hand to Bechamel. *)
let manual_ns ?(warmup = 2) ~iters (f : unit -> 'a) : float =
  for _ = 1 to warmup do
    ignore (f ())
  done;
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    ignore (f ())
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int iters *. 1e9

(* A batch of distinct-key signatures for verify_batch benchmarks. *)
let signature_batch n =
  List.init n (fun i ->
      let sk = Ed25519.generate ~seed:(Printf.sprintf "batch-bench-%d" i) in
      let msg = Printf.sprintf "batch msg %d" i in
      (Ed25519.public_key sk, msg, Ed25519.sign sk msg))

(* A certificate of ~2000 real votes (ed25519 + ECVRF sortition) plus
   the context to validate it: the committee-scale workload that batch
   verification exists for. Expected weighted votes = tau; user count
   and weights are chosen so ~2000 distinct voters win a seat. *)
let certificate_workload () =
  let sig_scheme = Signature_scheme.ed25519 and vrf_scheme = Vrf.ecvrf in
  let n_users = 2500 and w = 20 in
  let tau = 3800.0 in
  let total_weight = n_users * w in
  let seed = "bench-cert-seed" in
  let prev_hash = String.make 32 'p' in
  let block_hash = String.make 32 'b' in
  let params = { Params.paper with tau_step = tau } in
  let votes =
    List.filter_map
      (fun i ->
        let id =
          Algorand_core.Identity.generate ~sig_scheme ~vrf_scheme
            ~seed:(Printf.sprintf "cert-bench-%d" i)
        in
        Algorand_ba.Vote.make ~signer:id.signer ~prover:id.prover ~pk:id.pk ~seed ~tau
          ~w ~total_weight ~round:1 ~step:(Algorand_ba.Vote.Bin 1) ~prev_hash
          ~value:block_hash)
      (List.init n_users Fun.id)
  in
  let cert =
    Certificate.make ~round:1 ~step:(Algorand_ba.Vote.Bin 1) ~block_hash ~votes
  in
  let ctx : Algorand_ba.Vote.validation_ctx =
    {
      sig_scheme;
      vrf_scheme;
      sig_pk_of = Algorand_core.Identity.sig_pk;
      vrf_pk_of = Algorand_core.Identity.vrf_pk;
      seed;
      total_weight;
      weight_of = (fun _ -> w);
      last_block_hash = prev_hash;
      tau_of_step = (fun _ -> tau);
    }
  in
  (params, ctx, cert)

let bench_json = Filename.concat csv_dir "BENCH_crypto.json"

let write_bench_json (rows : (string * float) list) : unit =
  (try if not (Sys.file_exists csv_dir) then Sys.mkdir csv_dir 0o755 with Sys_error _ -> ());
  let oc = open_out bench_json in
  output_string oc "{\n";
  List.iteri
    (fun i (k, v) ->
      Printf.fprintf oc "  %S: %.0f%s\n" k v
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "}\n";
  close_out oc

(* Pull one numeric field out of a committed flat-JSON snapshot; the
   format is the flat object written above, so a string scan does. *)
let read_json_field ~(path : string) (key : string) : float option =
  try
    let ic = open_in path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    let needle = Printf.sprintf "%S:" key in
    let rec find i =
      if i + String.length needle > String.length s then None
      else if String.sub s i (String.length needle) = needle then begin
        let j = ref (i + String.length needle) in
        while !j < String.length s && not (String.contains "0123456789.-" s.[!j]) do
          incr j
        done;
        let k = ref !j in
        while !k < String.length s && String.contains "0123456789.-eE+" s.[!k] do
          incr k
        done;
        float_of_string_opt (String.sub s !j (!k - !j))
      end
      else find (i + 1)
    in
    find 0
  with Sys_error _ | End_of_file -> None

let read_bench_field (key : string) : float option = read_json_field ~path:bench_json key

(* Pre-engine numbers, measured on this codebase at the seed commit
   (naive double-and-add everywhere, one-by-one certificate
   verification). Kept in the snapshot so the speedup is always
   visible next to the current numbers; DESIGN.md section "Fast-path
   elliptic-curve engine" shows the same table. *)
let pre_engine_baselines =
  [
    ("baseline_ed25519_sign_ns", 1_156_050.0);
    ("baseline_ed25519_verify_ns", 2_998_969.0);
    ("baseline_ecvrf_prove_ns", 4_568_727.0);
    ("baseline_ecvrf_verify_ns", 5_071_770.0);
    ("baseline_certificate_validate_per_vote_ns", 7_840_000.0);
  ]

let micro () =
  header "Microbenchmarks: crypto + sortition primitives";
  let kb = String.make 1024 'x' in
  let ed = Ed25519.generate ~seed:"bench" in
  let ed_pk = Ed25519.public_key ed in
  let ed_sig = Ed25519.sign ed kb in
  let ecvrf_prover, ecvrf_pk = Vrf.ecvrf.generate ~seed:"bench" in
  let _, ecvrf_proof = ecvrf_prover.prove "input" in
  let sim_prover, _ = Vrf.sim.generate ~seed:"bench" in
  let counter = ref 0 in
  let fresh () = incr counter; string_of_int !counter in
  let rows = ref [] in
  let record key ns =
    rows := (key, ns) :: !rows;
    Printf.printf "  %-40s %12.0f ns/op\n%!" key ns
  in
  record "sha256_1kib_ns" (bechamel_ns "sha256/1KiB" (fun () -> Sha256.digest kb));
  record "ed25519_sign_ns" (bechamel_ns "ed25519/sign" (fun () -> Ed25519.sign ed (fresh ())));
  record "ed25519_verify_ns"
    (bechamel_ns "ed25519/verify" (fun () ->
         Ed25519.verify ~public:ed_pk ~msg:kb ~signature:ed_sig));
  let batch = signature_batch 64 in
  record "ed25519_verify_batch_per_sig_ns"
    (manual_ns ~iters:10 (fun () ->
         if not (Ed25519.verify_batch batch) then failwith "batch must verify")
    /. 64.0);
  record "ecvrf_prove_ns" (bechamel_ns "ecvrf/prove" (fun () -> ecvrf_prover.prove (fresh ())));
  record "ecvrf_verify_ns"
    (bechamel_ns "ecvrf/verify" (fun () ->
         Vrf.ecvrf.verify ~pk:ecvrf_pk ~input:"input" ~proof:ecvrf_proof));
  record "simvrf_prove_ns"
    (bechamel_ns "simvrf/prove" (fun () -> sim_prover.prove (fresh ())));
  record "sortition_select_j_ns"
    (bechamel_ns "sortition/select_j" (fun () ->
         Algorand_sortition.Binomial.select_j ~frac:0.37 ~w:1000 ~p:0.125));
  (* Composite consensus-path costs: one vote, then a whole certificate
     (where the per-vote signature cost collapses into the batch). *)
  Printf.printf "  building ~2000-vote certificate workload...\n%!";
  let params, ctx, cert = certificate_workload () in
  let n_votes = List.length cert.votes in
  (match cert.votes with
  | v :: _ ->
    record "vote_validate_ns"
      (manual_ns ~iters:20 (fun () ->
           if Algorand_ba.Vote.validate ctx v = 0 then failwith "vote must validate"))
  | [] -> failwith "empty certificate workload");
  record "certificate_votes" (float_of_int n_votes);
  record "certificate_validate_per_vote_ns"
    (manual_ns ~warmup:1 ~iters:2 (fun () ->
         match Certificate.validate ~params ~ctx cert with
         | Ok () -> ()
         | Error e -> Format.kasprintf failwith "certificate invalid: %a" Certificate.pp_error e)
    /. float_of_int n_votes);
  let rows = List.rev !rows @ pre_engine_baselines in
  write_bench_json rows;
  Printf.printf "  -> %s\n" bench_json;
  let ratio num den =
    match (List.assoc_opt num rows, List.assoc_opt den rows) with
    | Some a, Some b when a > 0.0 -> Printf.sprintf "%.1fx" (b /. a)
    | _ -> "?"
  in
  Printf.printf "  speedup vs pre-engine baseline: verify %s, certificate/vote %s\n"
    (ratio "ed25519_verify_ns" "baseline_ed25519_verify_ns")
    (ratio "certificate_validate_per_vote_ns" "baseline_certificate_validate_per_vote_ns")

(* Smoke-mode regression gate (CI): re-measure single-signature
   verification with a short manual loop and fail when it has
   regressed more than 2x against the committed snapshot. Short
   enough for CI; the full `micro` refreshes the snapshot. *)
let micro_check () =
  header "Microbenchmark smoke check: ed25519/verify vs committed snapshot";
  match read_bench_field "ed25519_verify_ns" with
  | None ->
    Printf.printf "  no committed %s; run `bench/main.exe -- micro` first\n" bench_json;
    exit 1
  | Some committed ->
    let ed = Ed25519.generate ~seed:"bench" in
    let ed_pk = Ed25519.public_key ed in
    let msg = String.make 1024 'x' in
    let ed_sig = Ed25519.sign ed msg in
    let measured =
      manual_ns ~warmup:5 ~iters:50 (fun () ->
          if not (Ed25519.verify ~public:ed_pk ~msg ~signature:ed_sig) then
            failwith "verify must accept")
    in
    Printf.printf "  committed %12.0f ns/op\n  measured  %12.0f ns/op (%.2fx)\n%!"
      committed measured (measured /. committed);
    if measured > 2.0 *. committed then begin
      Printf.printf "  FAIL: ed25519/verify regressed more than 2x\n";
      exit 1
    end
    else Printf.printf "  OK\n"

(* ------------------------------------------------------------------ *)
(* Figure 3: committee size vs honest fraction.                        *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  header "Figure 3: committee size tau vs honest fraction h (violation <= 5e-9)";
  Printf.printf "  %-6s %-10s %-8s\n" "h" "tau_step" "T";
  List.iter
    (fun h ->
      let tau, t = Committee.required_committee_size ~h () in
      Printf.printf "  %-6.2f %-10d %-8.3f%s\n%!" h tau t
        (if h = 0.80 then "   <- paper's operating point (tau=2000, T=0.685)" else ""))
    [ 0.76; 0.78; 0.80; 0.82; 0.84; 0.86; 0.88; 0.90 ];
  let v = Committee.violation_probability ~h:0.8 ~tau:2000.0 ~t:0.685 in
  Printf.printf "  check: violation prob at (h=0.80, tau=2000, T=0.685) = %.2e\n" v

(* ------------------------------------------------------------------ *)
(* Figure 4: the implementation parameter table.                       *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  header "Figure 4: implementation parameters";
  let p = Params.paper in
  Printf.printf "  h            %.0f%%\n" (p.honest_fraction *. 100.0);
  Printf.printf "  R            %d rounds\n" p.seed_refresh_interval;
  Printf.printf "  tau_proposer %.0f\n" p.tau_proposer;
  Printf.printf "  tau_step     %.0f\n" p.tau_step;
  Printf.printf "  T_step       %.1f%%\n" (p.t_step *. 100.0);
  Printf.printf "  tau_final    %.0f\n" p.tau_final;
  Printf.printf "  T_final      %.0f%%\n" (p.t_final *. 100.0);
  Printf.printf "  MaxSteps     %d\n" p.max_steps;
  Printf.printf "  lambda_priority %.0f s\n" p.lambda_priority;
  Printf.printf "  lambda_block    %.0f s\n" p.lambda_block;
  Printf.printf "  lambda_step     %.0f s\n" p.lambda_step;
  Printf.printf "  lambda_stepvar  %.0f s\n" p.lambda_stepvar

(* ------------------------------------------------------------------ *)
(* Figures 5-8: simulated deployments.                                 *)
(* ------------------------------------------------------------------ *)

let base =
  {
    Harness.default with
    rounds = 3;
    block_bytes = 1_000_000;
    tx_rate_per_s = 1.0;
    rng_seed = 2017;
  }

let fig5 () =
  header "Figure 5: round latency vs number of users (1 MB blocks)";
  Printf.printf "  (paper: 5,000-50,000 users across 1,000 VMs; here: simulated processes)\n";
  Printf.printf "  %-8s %s\n" "users" "round completion time (s)";
  let rows =
    List.map
      (fun users ->
        let users = users * scale in
        let r = Harness.run { base with users } in
        check_safety "fig5" r;
        Printf.printf "  %-8d %s\n%!" users (pp_summary r.completion);
        let c = r.completion in
        Printf.sprintf "%d,%.3f,%.3f,%.3f,%.3f,%.3f" users c.min c.p25 c.median c.p75
          c.max)
      [ 25; 50; 75; 100 ]
  in
  csv_out "fig5" "users,min,p25,median,p75,max" rows

let fig6 () =
  header "Figure 6: scaling with constrained per-process bandwidth";
  Printf.printf
    "  (paper: 500 users/VM, crypto replaced by sleeps, lambda_step = 1 min;\n";
  Printf.printf "   here: 2 Mbit/s per process and the same lambda_step bump)\n";
  let params = { Params.paper with lambda_step = 60.0 } in
  Printf.printf "  %-8s %s\n" "users" "round completion time (s)";
  let rows =
    List.map
      (fun users ->
        let users = users * scale in
        let r =
          Harness.run
            { base with users; rounds = 2; params; bandwidth_bps = 2e6; tx_rate_per_s = 0.5 }
        in
        check_safety "fig6" r;
        Printf.printf "  %-8d %s\n%!" users (pp_summary r.completion);
        let c = r.completion in
        Printf.sprintf "%d,%.3f,%.3f,%.3f,%.3f,%.3f" users c.min c.p25 c.median c.p75
          c.max)
      [ 60; 120; 180; 240 ]
  in
  csv_out "fig6" "users,min,p25,median,p75,max" rows

let fig7 () =
  header "Figure 7: latency breakdown vs block size (50 users)";
  Printf.printf "  %-10s %-12s %-18s %-14s %-10s\n" "block" "proposal(s)" "BA* w/o final(s)"
    "final step(s)" "total(s)";
  let rows = ref [] in
  List.iter
    (fun block_bytes ->
      let r =
        Harness.run { base with users = 50 * scale; block_bytes; rounds = 2; tx_rate_per_s = 0.5 }
      in
      check_safety "fig7" r;
      let mean phase = Stats.mean (Metrics.phase_times r.harness.metrics phase) in
      let proposal = mean Metrics.Block_proposal in
      let ba = mean Metrics.Ba_no_final in
      let final = mean Metrics.Ba_final in
      let label =
        if block_bytes >= 1_000_000 then Printf.sprintf "%dMB" (block_bytes / 1_000_000)
        else Printf.sprintf "%dKB" (block_bytes / 1_000)
      in
      Printf.printf "  %-10s %-12.2f %-18.2f %-14.2f %-10.2f\n%!" label proposal ba final
        (proposal +. ba +. final);
      rows :=
        Printf.sprintf "%d,%.3f,%.3f,%.3f" block_bytes proposal ba final :: !rows)
    [ 1_000; 10_000; 100_000; 1_000_000; 2_000_000; 10_000_000 ];
  csv_out "fig7" "block_bytes,proposal_s,ba_s,final_s" (List.rev !rows)

let fig8 () =
  header "Figure 8: latency vs fraction of malicious users (equivocation attack)";
  Printf.printf "  %-12s %-10s %s\n" "malicious" "final rds" "round completion time (s)";
  let rows = ref [] in
  List.iter
    (fun pct ->
      let r =
        Harness.run
          {
            base with
            users = 50 * scale;
            rounds = 5;
            block_bytes = 500_000;
            malicious_fraction = float_of_int pct /. 100.0;
            attack = Harness.Equivocate;
            rng_seed = 31 + pct;
          }
      in
      check_safety "fig8" r;
      Printf.printf "  %-12s %-10d %s\n%!"
        (Printf.sprintf "%d%%" pct)
        r.final_rounds (pp_summary r.completion);
      let c = r.completion in
      rows :=
        Printf.sprintf "%d,%d,%.3f,%.3f,%.3f" pct r.final_rounds c.min c.median c.max
        :: !rows)
    [ 0; 5; 10; 15; 20 ];
  csv_out "fig8" "malicious_pct,final_rounds,min,median,max" (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* Section 10.2: throughput vs the Bitcoin baseline.                   *)
(* ------------------------------------------------------------------ *)

let throughput () =
  header "Section 10.2: throughput (vs Bitcoin baseline)";
  let algorand block_bytes =
    let r =
      Harness.run { base with users = 50 * scale; block_bytes; rounds = 3; tx_rate_per_s = 0.5 }
    in
    check_safety "throughput" r;
    let mb_per_hour =
      float_of_int block_bytes /. 1e6 *. (3600.0 /. r.completion.median)
    in
    (r.completion.median, mb_per_hour)
  in
  let lat1, tp1 = algorand 1_000_000 in
  let lat10, tp10 = algorand 10_000_000 in
  let btc = Nakamoto.run { Nakamoto.bitcoin_default with duration_s = 20.0 *. 86_400.0 } in
  let btc_tp = btc.throughput_bytes_per_hour /. 1e6 in
  Printf.printf "  Algorand  1 MB blocks: %6.1f s/round  -> %8.1f MB/hour\n" lat1 tp1;
  Printf.printf "  Algorand 10 MB blocks: %6.1f s/round  -> %8.1f MB/hour\n" lat10 tp10;
  Printf.printf "  Bitcoin   1 MB /10min: %6.0f s confirm -> %8.1f MB/hour\n"
    btc.mean_confirmation_latency_s btc_tp;
  Printf.printf "  speedup (10 MB Algorand vs Bitcoin): %.0fx   (paper: 125x)\n"
    (tp10 /. btc_tp)

(* ------------------------------------------------------------------ *)
(* Section 2: related-work comparison table.                           *)
(* ------------------------------------------------------------------ *)

let related_work () =
  header "Section 2: Algorand vs fixed-server BFT vs Nakamoto";
  let module F = Algorand_baselines.Fixed_bft in
  let alg =
    Harness.run { base with users = 50 * scale; block_bytes = 10_000_000; rounds = 2; tx_rate_per_s = 0.5 }
  in
  check_safety "related-work" alg;
  let hb = F.run F.honey_badger_default in
  let btc = Nakamoto.run { Nakamoto.bitcoin_default with duration_s = 20.0 *. 86_400.0 } in
  Printf.printf "  %-28s %-14s %-16s %s\n" "system" "latency" "throughput" "notes";
  Printf.printf "  %-28s %-14s %-16s %s\n" "Algorand (10 MB blocks)"
    (Printf.sprintf "%.0f s" alg.completion.median)
    (Printf.sprintf "%.0f MB/h"
       (10.0 *. (3600.0 /. alg.completion.median)))
    "open membership, fresh committee per step";
  Printf.printf "  %-28s %-14s %-16s %s\n" "HoneyBadger-style fixed BFT"
    (Printf.sprintf "%.0f s" hb.mean_round_latency_s)
    (Printf.sprintf "%.0f MB/h" (hb.throughput_bytes_per_hour /. 1e6))
    "104 fixed servers (paper: ~5 min, ~200 KB/s)";
  Printf.printf "  %-28s %-14s %-16s %s\n" "Bitcoin (Nakamoto)"
    (Printf.sprintf "%.0f s" btc.mean_confirmation_latency_s)
    (Printf.sprintf "%.1f MB/h" (btc.throughput_bytes_per_hour /. 1e6))
    "6-block confirmation";
  (* The targeted-DoS contrast: fixed servers halt; Algorand degrades
     gracefully (fresh, secret committees). *)
  let hb_dosed = F.run { F.honey_badger_default with dos_servers = 36 } in
  let alg_dosed =
    Harness.run
      {
        base with
        users = 50 * scale;
        rounds = 2;
        block_bytes = 500_000;
        attack = Harness.Targeted_dos { fraction = 0.3; from_ = 0.0; until = 1e9 };
        tx_rate_per_s = 0.0;
      }
  in
  check_safety "related-work-dos" alg_dosed;
  Printf.printf "  under a 1/3 targeted DoS: fixed BFT halted=%b; Algorand committed %d/%d rounds\n"
    hb_dosed.halted
    (alg_dosed.final_rounds + alg_dosed.tentative_rounds)
    2

(* ------------------------------------------------------------------ *)
(* Section 10.3: CPU, bandwidth and storage costs.                     *)
(* ------------------------------------------------------------------ *)

let costs () =
  header "Section 10.3: costs of running Algorand";
  let r = Harness.run { base with users = 50 * scale; rounds = 2 } in
  check_safety "costs" r;
  let m = r.harness.metrics in
  let n = Array.length (Metrics.bytes_sent m) in
  let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int n in
  let mbps a = mean a *. 8.0 /. r.sim_time /. 1e6 in
  Printf.printf "  bandwidth: %.2f Mbit/s sent, %.2f Mbit/s received per user (paper: ~10 Mbit/s)\n"
    (mbps (Metrics.bytes_sent m)) (mbps (Metrics.bytes_received m));
  (* Certificate sizes: measured (sim VRF) and projected at paper scale
     with ECVRF proof sizes. *)
  (match
     Array.to_list r.harness.nodes
     |> List.filter_map (fun node -> Node.certificate node ~round:1)
     |> fun l -> List.nth_opt l 0
   with
  | Some c ->
    Printf.printf "  certificate (measured, %d votes at sim scale): %d KB\n"
      (List.length c.votes)
      (Certificate.size_bytes c / 1024)
  | None -> Printf.printf "  certificate: none assembled\n");
  let quorum = Params.certificate_quorum Params.paper in
  let ecvrf_vote_bytes = 16 + 64 + 32 + Vrf.ecvrf.proof_length + 32 + 32 + 64 in
  Printf.printf
    "  certificate (projected at paper scale: %d votes x %d B): %d KB (paper: ~300 KB)\n"
    quorum ecvrf_vote_bytes
    (quorum * ecvrf_vote_bytes / 1024);
  Printf.printf "  storage per 1 MB block, certificate included, sharded 10 ways: %.0f KB\n"
    (Algorand_ledger.Storage.per_block_cost_bytes ~shards:10 ~block_bytes:1_000_000
       ~certificate_bytes:(quorum * ecvrf_vote_bytes)
    /. 1024.0);
  (* CPU: time one vote validation with the real crypto. *)
  let sig_scheme = Signature_scheme.ed25519 and vrf_scheme = Vrf.ecvrf in
  let id = Algorand_core.Identity.generate ~sig_scheme ~vrf_scheme ~seed:"cost" in
  let vctx : Algorand_ba.Vote.validation_ctx =
    {
      sig_scheme;
      vrf_scheme;
      sig_pk_of = Algorand_core.Identity.sig_pk;
      vrf_pk_of = Algorand_core.Identity.vrf_pk;
      seed = "s";
      total_weight = 1000;
      weight_of = (fun _ -> 1000);
      last_block_hash = String.make 32 'p';
      tau_of_step = (fun _ -> 2000.0);
    }
  in
  (match
     Algorand_ba.Vote.make ~signer:id.signer ~prover:id.prover ~pk:id.pk ~seed:"s"
       ~tau:2000.0 ~w:1000 ~total_weight:1000 ~round:1 ~step:(Algorand_ba.Vote.Bin 1)
       ~prev_hash:(String.make 32 'p') ~value:"v"
   with
  | Some v ->
    let t0 = Unix.gettimeofday () in
    let iters = 5 in
    for _ = 1 to iters do
      ignore (Algorand_ba.Vote.validate vctx v)
    done;
    Printf.printf "  CPU: one vote validation (ed25519 + ECVRF, pure OCaml): %.1f ms\n"
      ((Unix.gettimeofday () -. t0) /. float_of_int iters *. 1000.0)
  | None -> ())

(* ------------------------------------------------------------------ *)
(* Section 10.5: timeout parameter validation.                         *)
(* ------------------------------------------------------------------ *)

let timeouts () =
  header "Section 10.5: timeout parameters vs observed times";
  let r = Harness.run { base with users = 50 * scale; rounds = 3 } in
  check_safety "timeouts" r;
  let m = r.harness.metrics in
  let steps = Stats.summarize (Metrics.step_durations m) in
  let prio = Stats.summarize (Metrics.priority_gossip_times m) in
  let p = base.params in
  Printf.printf "  BA* step durations:        %s\n" (pp_summary steps);
  Printf.printf "    -> lambda_step = %.0fs bound holds: %b; p75-p25 = %.2fs vs lambda_stepvar = %.0fs\n"
    p.lambda_step
    (steps.p75 < p.lambda_step)
    (steps.p75 -. steps.p25) p.lambda_stepvar;
  Printf.printf "  priority gossip times:     %s\n" (pp_summary prio);
  Printf.printf "    -> lambda_priority = %.0fs bound holds: %b (paper measures ~1s)\n"
    p.lambda_priority
    (prio.max < p.lambda_priority +. p.lambda_stepvar)

(* ------------------------------------------------------------------ *)
(* Technical-report appendix analyses.                                 *)
(* ------------------------------------------------------------------ *)

let analysis () =
  header "Appendix analyses (technical report A, B.1, C.3 + section 8.3)";
  let module A = Algorand_ba.Analysis in
  Printf.printf "  B.1 proposers at tau=26: P(none) = %.2e, P(>70) = %.2e (paper: ~1e-11)\n"
    (A.no_proposer_probability ~tau:26.0)
    (A.too_many_proposers_probability ~tau:26.0 ~bound:70);
  Printf.printf "  C.3 steps: common case %d; worst-case expected %.1f (paper: 4 and 13)\n"
    A.common_case_steps
    (A.expected_worst_case_steps ~h:0.8);
  Printf.printf "  C.3 P(exceed MaxSteps=150) = %.2e\n"
    (A.max_steps_overflow_probability ~h:0.8 ~max_steps:150);
  Printf.printf "  A   blocks for an honest seed at F=1e-9: %d (logarithmic in 1/F)\n"
    (A.blocks_for_honest_seed ~h:0.8 ~failure:1e-9);
  Printf.printf
    "  8.3 certificate forgery per step at tau=2000: < 2^%.0f (paper: < 2^-166)\n"
    (A.log2_certificate_attack_per_step ~h:0.8 ~tau:2000.0 ~t:0.685)

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md section 4).                                    *)
(* ------------------------------------------------------------------ *)

let ablation_committee () =
  header "Ablation: committee size tau_step (latency vs violation probability)";
  Printf.printf "  %-10s %-14s %-14s %s\n" "tau_step" "viol. prob" "median lat(s)" "(threshold fixed at 0.685)";
  List.iter
    (fun tau ->
      let params = { Params.paper with tau_step = tau; tau_final = 2.0 *. tau } in
      let v = Committee.violation_probability ~h:0.8 ~tau ~t:0.685 in
      let r =
        Harness.run
          { base with users = 50 * scale; rounds = 2; params; block_bytes = 100_000; tx_rate_per_s = 0.0 }
      in
      check_safety "ablation-committee" r;
      Printf.printf "  %-10.0f %-14.2e %-14.2f\n%!" tau v r.completion.median)
    [ 100.0; 500.0; 2000.0; 4000.0 ]

let ablation_pipeline () =
  header "Ablation: final-step pipelining (section 10.2)";
  Printf.printf "  %-12s %-18s %-14s\n" "pipelining" "all-rounds done(s)" "final rounds";
  List.iter
    (fun pipeline_final ->
      let rounds = 4 in
      let r =
        Harness.run
          { base with users = 50 * scale; rounds; pipeline_final; block_bytes = 1_000_000 }
      in
      check_safety "ablation-pipeline" r;
      let last_done =
        List.fold_left
          (fun acc (rec_ : Metrics.round_record) ->
            if Float.is_nan rec_.final_done then acc else Float.max acc rec_.final_done)
          0.0 (Metrics.records r.harness.metrics)
      in
      Printf.printf "  %-12s %-18.2f %-14d\n%!"
        (if pipeline_final then "on" else "off")
        last_done r.final_rounds)
    [ false; true ]

let ablation_fanout () =
  header "Ablation: gossip fanout (dissemination vs bandwidth)";
  Printf.printf "  %-8s %-16s %-16s\n" "fanout" "median lat(s)" "MB sent/user";
  List.iter
    (fun fanout ->
      let r =
        Harness.run { base with users = 50 * scale; rounds = 2; fanout; block_bytes = 500_000 }
      in
      check_safety "ablation-fanout" r;
      let m = r.harness.metrics in
      let n = Array.length (Metrics.bytes_sent m) in
      let mb = Array.fold_left ( +. ) 0.0 (Metrics.bytes_sent m) /. float_of_int n /. 1e6 in
      Printf.printf "  %-8d %-16.2f %-16.1f\n%!" fanout r.completion.median mb)
    [ 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Figures 5-6 at paper-scale user counts: the population engine.      *)
(* ------------------------------------------------------------------ *)

let sim_bench_json = Filename.concat csv_dir "BENCH_sim.json"

(* Like [write_bench_json] but with fractional precision: rounds/sec at
   half a million users is well below 1. *)
let write_sim_json (rows : (string * float) list) : unit =
  (try if not (Sys.file_exists csv_dir) then Sys.mkdir csv_dir 0o755 with Sys_error _ -> ());
  let oc = open_out sim_bench_json in
  output_string oc "{\n";
  List.iteri
    (fun i (k, v) ->
      Printf.fprintf oc "  %S: %.4f%s\n" k v
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "}\n";
  close_out oc

(* Fixed committee parameters for the sweep: committee sizes stay
   constant while the population grows - the paper's core scaling claim
   (section 10.1). Scaled-down taus keep the materialized set (and the
   O(committee^2) direct-delivery traffic) small so the population
   sweep is sortition-bound, which is the cost that actually grows with
   the user count. *)
let sim_params = Params.scaled ~factor:0.01

let sim_config ~(users : int) ~(rounds : int) : Algorand_core.Population.config =
  {
    Algorand_core.Population.default with
    users;
    rounds;
    params = sim_params;
    block_bytes = 1_000_000;
    rng_seed = 2017;
  }

(* One sweep point: run, audit, and distill the numbers BENCH_sim
   tracks. *)
let sim_point ~(users : int) ~(rounds : int) :
    (string * float) list * string * Algorand_core.Population.result =
  let t0 = Unix.gettimeofday () in
  let r = Algorand_core.Population.run (sim_config ~users ~rounds) in
  let wall = Unix.gettimeofday () -. t0 in
  if not r.agreement then begin
    Printf.printf "!! population run at %d users failed its agreement audit\n" users;
    exit 1
  end;
  let stats = r.round_stats in
  let n_rounds = float_of_int (List.length stats) in
  let mean f = List.fold_left (fun a s -> a +. f s) 0.0 stats /. n_rounds in
  let latency = mean (fun (s : Algorand_core.Population.round_stat) -> s.latency_s) in
  let bytes_per_user =
    mean (fun (s : Algorand_core.Population.round_stat) -> s.modeled_bytes_per_user)
  in
  (* rounds_per_s folds the genesis set-up into the rate (the sim-check
     gate reads it); steady_rounds_per_s leaves it out. *)
  let rounds_per_s = float_of_int rounds /. wall in
  let steady_rounds_per_s = float_of_int rounds /. (wall -. r.setup_s) in
  (* RSS proxy: the OCaml heap high-water mark. Process-global and
     monotone, so the sweep must visit user counts in ascending order
     for per-point numbers to mean anything. *)
  let top_heap_mb = float_of_int (Gc.quick_stat ()).top_heap_words *. 8e-6 in
  let key fmt = Printf.sprintf "sim_users_%d_%s" users fmt in
  let fields =
    [
      (key "rounds_per_s", rounds_per_s);
      (key "setup_s", r.setup_s);
      (key "steady_rounds_per_s", steady_rounds_per_s);
      (key "latency_s", latency);
      (key "events", float_of_int r.total_events);
      (key "peak_events", float_of_int r.peak_pending);
      (key "materialized", float_of_int r.max_materialized);
      (key "bytes_per_user", bytes_per_user);
      (key "top_heap_mb", top_heap_mb);
    ]
  in
  let lat_min =
    List.fold_left
      (fun a (s : Algorand_core.Population.round_stat) -> Float.min a s.latency_s)
      infinity stats
  and lat_max =
    List.fold_left
      (fun a (s : Algorand_core.Population.round_stat) -> Float.max a s.latency_s)
      0.0 stats
  in
  let csv_row =
    Printf.sprintf "%d,%.3f,%.3f,%.3f,%d,%d,%.0f,%.1f" users lat_min latency lat_max
      r.max_materialized r.peak_pending bytes_per_user top_heap_mb
  in
  Printf.printf
    "  %-9d lat=%6.2fs materialized=%-6d peak_ev=%-8d %8.0f B/user  %6.3f rounds/s \
     (%6.3f steady, %5.1fs setup)  heap=%.0f MB\n%!"
    users latency r.max_materialized r.peak_pending bytes_per_user rounds_per_s
    steady_rounds_per_s r.setup_s top_heap_mb;
  (fields, csv_row, r)

let sim_csv_header = "users,lat_min,lat_mean,lat_max,materialized,peak_events,bytes_per_user,top_heap_mb"

let sim () =
  header "Figures 5-6 at paper scale: population-engine user sweep";
  Printf.printf
    "  (committee params fixed at tau_proposer=%.0f tau_step=%.0f tau_final=%.0f;\n"
    sim_params.tau_proposer sim_params.tau_step sim_params.tau_final;
  Printf.printf "   only sortition-selected users are materialized per round)\n";
  let rows = ref [] in
  Printf.printf "  Figure 5 (scale): latency vs users, 20 Mbit/s\n";
  let fig5_rows =
    List.map
      (fun users ->
        let fields, csv_row, _ = sim_point ~users ~rounds:3 in
        rows := !rows @ fields;
        csv_row)
      [ 5_000; 50_000; 100_000; 500_000; 1_000_000 ]
  in
  csv_out "fig5_scale" sim_csv_header fig5_rows;
  Printf.printf "  Figure 6 (scale): latency vs users, 2 Mbit/s, lambda_step = 1 min\n";
  let fig6_rows =
    List.map
      (fun users ->
        let t0 = Unix.gettimeofday () in
        let r =
          Algorand_core.Population.run
            {
              (sim_config ~users ~rounds:2) with
              bandwidth_bps = 2e6;
              params = { sim_params with lambda_step = 60.0 };
            }
        in
        let wall = Unix.gettimeofday () -. t0 in
        if not r.agreement then begin
          Printf.printf "!! fig6-scale population run at %d users failed its audit\n" users;
          exit 1
        end;
        let stats = r.round_stats in
        let lat acc f = List.fold_left f acc stats in
        let lat_min =
          lat infinity (fun a (s : Algorand_core.Population.round_stat) ->
              Float.min a s.latency_s)
        and lat_max =
          lat 0.0 (fun a (s : Algorand_core.Population.round_stat) ->
              Float.max a s.latency_s)
        in
        let lat_mean =
          lat 0.0 (fun a (s : Algorand_core.Population.round_stat) -> a +. s.latency_s)
          /. float_of_int (List.length stats)
        in
        rows := !rows @ [ (Printf.sprintf "sim_fig6_users_%d_latency_s" users, lat_mean) ];
        Printf.printf "  %-9d lat=%6.2fs (%.2f rounds/s wall)\n%!" users lat_mean
          (float_of_int 2 /. wall);
        Printf.sprintf "%d,%.3f,%.3f,%.3f,%d,%d,%.0f,%.1f" users lat_min lat_mean lat_max
          r.max_materialized r.peak_pending 0.0
          (float_of_int (Gc.quick_stat ()).top_heap_words *. 8e-6))
      [ 5_000; 50_000; 100_000; 500_000 ]
  in
  csv_out "fig6_scale" sim_csv_header fig6_rows;
  let rows =
    !rows
    @ [
        ("sim_max_users", 1_000_000.0);
        ("sim_sweep_rounds", 3.0);
        ("sim_tau_step", sim_params.tau_step);
        ("sim_tau_final", sim_params.tau_final);
      ]
  in
  write_sim_json rows;
  Printf.printf "  -> %s\n" sim_bench_json

(* CI smoke gate: one budgeted 100k-user run against the committed
   snapshot; fails (exit 1) when rounds/sec regresses more than 2x, or
   when the run loses agreement or determinism. *)
let sim_check () =
  header "Population-engine smoke check: 100k users vs committed snapshot";
  let committed =
    match read_json_field ~path:sim_bench_json "sim_users_100000_rounds_per_s" with
    | Some v -> v
    | None ->
      Printf.printf "  no committed %s; run `bench/main.exe -- sim` first\n" sim_bench_json;
      exit 1
  in
  let users = 100_000 and rounds = 5 in
  let t0 = Unix.gettimeofday () in
  let r = Algorand_core.Population.run (sim_config ~users ~rounds) in
  let wall = Unix.gettimeofday () -. t0 in
  if not r.agreement then begin
    Printf.printf "  FAIL: agreement audit failed\n";
    exit 1
  end;
  if List.length r.block_hashes <> rounds then begin
    Printf.printf "  FAIL: completed %d/%d rounds\n" (List.length r.block_hashes) rounds;
    exit 1
  end;
  let measured = float_of_int rounds /. wall in
  Printf.printf "  committed %8.4f rounds/s\n  measured  %8.4f rounds/s (%.2fx)\n%!"
    committed measured (committed /. measured);
  if measured < committed /. 2.0 then begin
    Printf.printf "  FAIL: population engine regressed more than 2x\n";
    exit 1
  end
  else Printf.printf "  OK (%d users, %d rounds, %.1fs wall)\n" users rounds wall

(* ------------------------------------------------------------------ *)
(* Sustained-TPS ledger benchmark: the sharded balance map under the   *)
(* hostile workload generator (million-account population, Zipf        *)
(* hot-key skew, invalid/duplicate/self-pay mixes), batch signature    *)
(* checking of block transactions, and light-client proof serving.     *)
(* Emits results/BENCH_ledger.json; `ledger-check` is its CI gate.     *)
(* ------------------------------------------------------------------ *)

module Balances = Algorand_ledger.Balances
module Workload = Algorand_ledger.Workload
module Transaction = Algorand_ledger.Transaction
module Lblock = Algorand_ledger.Block
module Lightclient = Algorand_core.Lightclient

let ledger_bench_json = Filename.concat csv_dir "BENCH_ledger.json"

let write_ledger_json (rows : (string * float) list) : unit =
  (try if not (Sys.file_exists csv_dir) then Sys.mkdir csv_dir 0o755 with Sys_error _ -> ());
  let oc = open_out ledger_bench_json in
  output_string oc "{\n";
  List.iteri
    (fun i (k, v) ->
      Printf.fprintf oc "  %S: %.2f%s\n" k v
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "}\n";
  close_out oc

(* A pre-generated workload stream: same (seed, mix, skew) - and hence
   the same transactions - for every shard count it is replayed
   against. *)
let ledger_stream ~(accounts : int) ~(zipf : float) ~(mix : Workload.mix)
    ~(n_txs : int) : Workload.t * Transaction.t array =
  let wl =
    Workload.create
      {
        Workload.accounts = Workload.Synthetic { n = accounts; scheme = Signature_scheme.sim };
        zipf_s = zipf;
        mix;
        burst = None;
        amount = 1;
        seed = 1009;
      }
  in
  (wl, Array.init n_txs (fun _ -> fst (Workload.next wl)))

(* One (shards, stream) point, both halves of the block path:
   - assembly: sequential per-transaction apply over the raw stream,
     filtering what does not apply (the proposer's dry run) and
     chunking survivors into blocks;
   - validation: [apply_block] over those blocks (per-shard parallel
     conservative pass with sequential fallback), which must reproduce
     the assembly-side final state. *)
type ledger_point = {
  lp_assembly_tps : float;  (** raw stream txs through the filter per second *)
  lp_validate_tps : float;  (** committed txs through apply_block per second *)
  lp_block_ms : float;  (** mean apply_block latency per block *)
  lp_applied : int;
  lp_rejected : int;
}

let ledger_point ?(parallel = true) ~(wl : Workload.t) ~(shards : int)
    ~(block_txs : int) (stream : Transaction.t array) : ledger_point =
  let b0 = Workload.initial_balances wl ~stake:1_000 ~shards in
  let blocks = ref [] and cur = ref [] and cur_n = ref 0 in
  let t0 = Unix.gettimeofday () in
  let st = ref b0 and applied = ref 0 and rejected = ref 0 in
  Array.iter
    (fun tx ->
      match Balances.apply_tx !st tx with
      | Ok st' ->
        st := st';
        incr applied;
        cur := tx :: !cur;
        incr cur_n;
        if !cur_n = block_txs then begin
          blocks := List.rev !cur :: !blocks;
          cur := [];
          cur_n := 0
        end
      | Error _ -> incr rejected)
    stream;
  if !cur <> [] then blocks := List.rev !cur :: !blocks;
  let assembly_wall = Unix.gettimeofday () -. t0 in
  let blocks = List.rev !blocks in
  let t1 = Unix.gettimeofday () in
  let st_v =
    List.fold_left
      (fun acc b ->
        match Balances.apply_block ~parallel acc b with
        | Ok acc' -> acc'
        | Error e ->
          Format.kasprintf failwith "filtered block must apply: %a" Balances.pp_tx_error e)
      b0 blocks
  in
  let validate_wall = Unix.gettimeofday () -. t1 in
  (* The money-supply audit on both final states: catching an inflation
     bug here is the whole point of running self-pays through. *)
  if not (Balances.invariant !st) || not (Balances.invariant st_v) then
    failwith "ledger bench: balance invariant violated";
  if Balances.total st_v <> Balances.total b0 then
    failwith "ledger bench: money supply changed";
  {
    lp_assembly_tps = float_of_int (Array.length stream) /. assembly_wall;
    lp_validate_tps = float_of_int !applied /. validate_wall;
    lp_block_ms =
      (if blocks = [] then 0.0
       else validate_wall /. float_of_int (List.length blocks) *. 1e3);
    lp_applied = !applied;
    lp_rejected = !rejected;
  }

(* Batch signature verification of a block's transactions (ed25519):
   the per-signature cost of one verify_batch equation vs one verify
   call per transaction, plus the bisection filter with a corruption. *)
let ledger_sig_rows () : (string * float) list =
  let scheme = Signature_scheme.ed25519 in
  let n_signers = 64 and n_txs = 256 in
  let signers =
    Array.init n_signers (fun i ->
        scheme.Signature_scheme.generate ~seed:(Printf.sprintf "ledger-sig-%d" i))
  in
  let txs =
    List.init n_txs (fun i ->
        let s = i mod n_signers in
        let signer, pk = signers.(s) in
        let _, recipient = signers.((s + 1) mod n_signers) in
        Transaction.make ~signer ~sender:pk ~recipient ~amount:1 ~nonce:(i / n_signers))
  in
  let per_tx_ns =
    manual_ns ~iters:5 (fun () ->
        List.iter
          (fun tx ->
            if not (Transaction.verify_signature ~scheme tx) then
              failwith "tx must verify")
          txs)
    /. float_of_int n_txs
  in
  let batch_ns =
    manual_ns ~iters:5 (fun () ->
        if not (Transaction.verify_batch ~scheme txs) then failwith "batch must verify")
    /. float_of_int n_txs
  in
  (* One corrupt transaction: the filter must reject exactly it. *)
  let corrupt = { (List.nth txs 37) with signature = String.make 64 '\000' } in
  let mixed = List.mapi (fun i tx -> if i = 37 then corrupt else tx) txs in
  let valid, rejected = Transaction.filter_valid_batch ~scheme mixed in
  if List.length valid <> n_txs - 1 || List.length rejected <> 1 then
    failwith "filter_valid_batch must isolate the corruption";
  Printf.printf
    "  block signature check (%d ed25519 txs): %8.0f ns/tx one-by-one, %8.0f ns/tx \
     batched (%.1fx)\n%!"
    n_txs per_tx_ns batch_ns (per_tx_ns /. batch_ns);
  [
    ("ledger_sig_per_tx_verify_ns", per_tx_ns);
    ("ledger_sig_batch_per_tx_ns", batch_ns);
    ("ledger_sig_batch_speedup_x", per_tx_ns /. batch_ns);
  ]

(* Light-client proof serving under load: k proofs over one hot block,
   naive per-request tree rebuild vs the caching server. *)
let ledger_lightclient_rows () : (string * float) list =
  let signer, pk = Signature_scheme.sim.Signature_scheme.generate ~seed:"lc-bench" in
  let txs =
    List.init 4096 (fun i ->
        Transaction.make ~signer ~sender:pk ~recipient:pk ~amount:1 ~nonce:i)
  in
  let block = { (Lblock.empty ~round:1 ~prev_hash:(String.make 32 'p')) with txs } in
  let ids = Array.of_list (List.map Transaction.id txs) in
  let n_queries = 200 in
  let query i = ids.((i * 17) mod Array.length ids) in
  let naive_s =
    manual_ns ~warmup:1 ~iters:1 (fun () ->
        for i = 0 to n_queries - 1 do
          if Lblock.prove_tx block ~tx_id:(query i) = None then failwith "must prove"
        done)
    /. 1e9
  in
  let server = Lightclient.create_server () in
  let served_s =
    manual_ns ~warmup:1 ~iters:1 (fun () ->
        for i = 0 to n_queries - 1 do
          match Lightclient.serve_proof server ~block ~tx_id:(query i) with
          | Some (s, proof) ->
            if not (Lblock.summary_contains s ~tx_id:(query i) proof) then
              failwith "served proof must verify"
          | None -> failwith "must serve"
        done)
    /. 1e9
  in
  let naive_ps = float_of_int n_queries /. naive_s in
  let served_ps = float_of_int n_queries /. served_s in
  Printf.printf
    "  light-client serving (4096-tx block, %d queries): %8.0f proofs/s naive, %8.0f \
     proofs/s cached tree (%.0fx)\n%!"
    n_queries naive_ps served_ps (served_ps /. naive_ps);
  [
    ("lightclient_naive_proofs_per_s", naive_ps);
    ("lightclient_server_proofs_per_s", served_ps);
  ]

(* The gate-scale point, shared between `ledger` (which commits its
   result) and `ledger-check` (which re-measures and compares). *)
let ledger_check_point () : ledger_point =
  let wl, stream =
    ledger_stream ~accounts:100_000 ~zipf:1.1 ~mix:Workload.hostile ~n_txs:30_000
  in
  ledger_point ~wl ~shards:8 ~block_txs:1_024 stream

let ledger () =
  header "Sustained-TPS ledger: sharded accounts under the hostile workload";
  let accounts = 1_000_000 and n_txs = 200_000 and block_txs = 1_024 in
  let zipf = 1.1 in
  Printf.printf
    "  (%d accounts, %d-tx stream, Zipf %.1f hot-key skew, %d-tx blocks)\n%!" accounts
    n_txs zipf block_txs;
  let rows = ref [] and csv_rows = ref [] in
  let mixes = [ ("clean", Workload.clean); ("hostile", Workload.hostile) ] in
  List.iter
    (fun (mix_name, mix) ->
      Printf.printf "  generating %s stream...\n%!" mix_name;
      let wl, stream = ledger_stream ~accounts ~zipf ~mix ~n_txs in
      List.iter
        (fun shards ->
          let p = ledger_point ~wl ~shards ~block_txs stream in
          Printf.printf
            "  %-8s shards=%-3d assembly %8.0f tx/s  validate %8.0f tx/s  %6.2f \
             ms/block  (%d applied, %d rejected)\n%!"
            mix_name shards p.lp_assembly_tps p.lp_validate_tps p.lp_block_ms
            p.lp_applied p.lp_rejected;
          let key fmt = Printf.sprintf "ledger_%s_shards%d_%s" fmt shards mix_name in
          rows :=
            !rows
            @ [
                (key "tps_assembly", p.lp_assembly_tps);
                (key "tps_validate", p.lp_validate_tps);
                (key "block_ms", p.lp_block_ms);
              ];
          csv_rows :=
            !csv_rows
            @ [
                Printf.sprintf "%s,%d,%d,%.0f,%.0f,%.3f,%d,%d" mix_name shards accounts
                  p.lp_assembly_tps p.lp_validate_tps p.lp_block_ms p.lp_applied
                  p.lp_rejected;
              ])
        [ 1; 8; 64 ])
    mixes;
  (* Parallel vs sequential validation at the default shard count. *)
  let wl, stream = ledger_stream ~accounts ~zipf ~mix:Workload.hostile ~n_txs in
  let seq = ledger_point ~parallel:false ~wl ~shards:8 ~block_txs stream in
  Printf.printf "  hostile  shards=8   validate %8.0f tx/s sequential (no domains)\n%!"
    seq.lp_validate_tps;
  rows := !rows @ [ ("ledger_tps_validate_shards8_hostile_seq", seq.lp_validate_tps) ];
  rows := !rows @ ledger_sig_rows ();
  rows := !rows @ ledger_lightclient_rows ();
  Printf.printf "  gate-scale point (100k accounts, 30k txs, shards=8, hostile)...\n%!";
  let gate = ledger_check_point () in
  Printf.printf "  gate      validate %8.0f tx/s\n%!" gate.lp_validate_tps;
  rows :=
    !rows
    @ [
        ("ledger_check_tps_validate", gate.lp_validate_tps);
        ("ledger_accounts", float_of_int accounts);
        ("ledger_stream_txs", float_of_int n_txs);
        ("ledger_block_txs", float_of_int block_txs);
        ("ledger_zipf_s", zipf);
      ];
  csv_out "ledger_tps" "mix,shards,accounts,assembly_tps,validate_tps,block_ms,applied,rejected"
    !csv_rows;
  write_ledger_json !rows;
  Printf.printf "  -> %s\n" ledger_bench_json

(* CI smoke gate: re-measure the gate-scale point and fail (exit 1) on
   a >2x validate-TPS regression against the committed snapshot; the
   point itself re-runs the conservation/invariant audits. *)
let ledger_check () =
  header "Ledger smoke check: 100k-account hostile workload vs committed snapshot";
  let committed =
    match read_json_field ~path:ledger_bench_json "ledger_check_tps_validate" with
    | Some v -> v
    | None ->
      Printf.printf "  no committed %s; run `bench/main.exe -- ledger` first\n"
        ledger_bench_json;
      exit 1
  in
  let p = ledger_check_point () in
  Printf.printf "  committed %10.0f tx/s\n  measured  %10.0f tx/s (%.2fx)\n%!" committed
    p.lp_validate_tps
    (committed /. p.lp_validate_tps);
  if p.lp_validate_tps < committed /. 2.0 then begin
    Printf.printf "  FAIL: ledger validate path regressed more than 2x\n";
    exit 1
  end
  else
    Printf.printf "  OK (%d applied, %d rejected, conservation + invariant hold)\n"
      p.lp_applied p.lp_rejected

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("micro", micro);
    ("micro-check", micro_check);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("throughput", throughput);
    ("related-work", related_work);
    ("costs", costs);
    ("timeouts", timeouts);
    ("analysis", analysis);
    ("ablation-committee", ablation_committee);
    ("ablation-pipeline", ablation_pipeline);
    ("ablation-fanout", ablation_fanout);
    ("sim", sim);
    ("sim-check", sim_check);
    ("ledger", ledger);
    ("ledger-check", ledger_check);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst experiments
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
        Printf.printf "unknown experiment %S; available: %s\n" name
          (String.concat " " (List.map fst experiments)))
    requested;
  Printf.printf "\n(total wall time: %.1f s)\n" (Unix.gettimeofday () -. t0)
