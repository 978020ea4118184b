(* Bit-identity of the population engine's fused sortition sweep.

   [Population.sweep] evaluates the sim VRF from per-user SHA-256
   midstates and pre-expanded per-role schedules. Every selection it
   makes must equal the public per-evaluation path - [Vrf.sim.verify],
   [Sortition.hash_fraction], [Binomial.select_j] - for every (user,
   role), at any seed or role length, for equal and unequal stakes, and
   however the user range is split. *)

open Algorand_crypto
module Population = Algorand_core.Population
module Sortition = Algorand_sortition.Sortition
module Binomial = Algorand_sortition.Binomial
module Vote = Algorand_ba.Vote

let t name f = Alcotest.test_case name `Quick f

(* The public path, one (user, role) at a time. *)
let reference ~pks ~stakes ~total_weight ~seed ~roles : bool array * int array =
  let selected = Array.make (Array.length pks) false in
  let counts =
    Array.map
      (fun (role, tau) ->
        let input = Sortition.vrf_input ~seed ~role in
        let p = tau /. float_of_int total_weight in
        let count = ref 0 in
        Array.iteri
          (fun u pk ->
            match Vrf.sim.verify ~pk ~input ~proof:"" with
            | None -> Alcotest.fail "sim VRF rejected an empty proof"
            | Some h ->
              if Binomial.select_j ~frac:(Sortition.hash_fraction h) ~w:stakes.(u) ~p > 0
              then begin
                incr count;
                selected.(u) <- true
              end)
          pks;
        !count)
      roles
  in
  (selected, counts)

(* The fused sweep over [lo, hi) split at [cuts], counts summed. *)
let fused ~pks ~stakes ~total_weight ~seed ~roles ~cuts : bool array * int array =
  let selected = Array.make (Array.length pks) false in
  let counts = Array.make (Array.length roles) 0 in
  let bounds = (0 :: cuts) @ [ Array.length pks ] in
  let rec go = function
    | lo :: (hi :: _ as rest) ->
      let c = Population.sweep ~pks ~stakes ~total_weight ~seed ~roles ~selected ~lo ~hi in
      Array.iteri (fun r x -> counts.(r) <- counts.(r) + x) c;
      go rest
    | _ -> ()
  in
  go bounds;
  (selected, counts)

let random_pks d n = Array.init n (fun _ -> Drbg.random_bytes d 32)

let stakes_of ~n = function
  | `Equal -> Array.make n 1_000
  | `Linear -> Array.init n (fun i -> 10 * (i + 1))

let check_case ~label ~pks ~stakes ~seed ~roles ~cuts =
  let total_weight = Array.fold_left ( + ) 0 stakes in
  let roles = roles total_weight in
  let ref_sel, ref_counts = reference ~pks ~stakes ~total_weight ~seed ~roles in
  Alcotest.(check bool)
    (label ^ ": some user selected") true
    (Array.exists Fun.id ref_sel);
  List.iter
    (fun cuts ->
      let sel, counts = fused ~pks ~stakes ~total_weight ~seed ~roles ~cuts in
      let label =
        Printf.sprintf "%s, cuts [%s]" label (String.concat ";" (List.map string_of_int cuts))
      in
      Alcotest.(check (array int)) (label ^ ": per-role counts") ref_counts counts;
      Alcotest.(check (array bool)) (label ^ ": selected set") ref_sel sel)
    ([] :: cuts)

(* Taus from a handful of users per role up to the heavy regime, where
   B(0) underflows and the sweep cannot skip [select_j]. *)
let taus total_weight =
  let w = float_of_int total_weight in
  [| 3.0; 20.0; 0.05 *. w; 0.9 *. w |]

let with_taus names total_weight =
  let ts = taus total_weight in
  Array.mapi (fun i role -> (role, ts.(i mod Array.length ts))) names

(* Roles of every length 0..70: with each seed, their message tails land
   on both sides of the 55/56- and 64-byte padding boundaries. *)
let boundary_roles =
  Array.init 71 (fun len -> String.init len (fun i -> Char.chr (97 + (i mod 26))))

let seed_lengths () =
  let d = Drbg.create ~seed:"sim-sweep-seeds" in
  let pks = random_pks d 60 in
  List.iter
    (fun seed_len ->
      let seed = Drbg.random_bytes d seed_len in
      List.iter
        (fun (dist, name) ->
          check_case
            ~label:(Printf.sprintf "%d-byte seed, %s stakes" seed_len name)
            ~pks ~stakes:(stakes_of ~n:60 dist) ~seed ~roles:(with_taus boundary_roles)
            ~cuts:[ [ 1 ]; [ 17; 18; 41 ] ])
        [ (`Equal, "equal"); (`Linear, "linear") ])
    [ 0; 21; 22; 32; 55; 100 ]

(* The engine's own role window, at a population large enough that the
   whole-range call splits across domains on a multi-core host. *)
let round_window () =
  let n = 9_000 in
  let d = Drbg.create ~seed:"sim-sweep-window" in
  let pks = random_pks d n in
  let seed = Drbg.random_bytes d 32 in
  let names =
    Array.of_list
      (Vote.proposer_role ~round:7
      :: List.map
           (fun step -> Vote.committee_role ~round:7 ~step)
           ((Vote.Reduction_one :: Vote.Reduction_two :: List.init 10 (fun i -> Vote.Bin (i + 1)))
           @ [ Vote.Final ]))
  in
  List.iter
    (fun (dist, name) ->
      check_case
        ~label:(Printf.sprintf "round window, %s stakes" name)
        ~pks ~stakes:(stakes_of ~n dist) ~seed
        ~roles:(fun _ ->
          let last = Array.length names - 1 in
          Array.mapi
            (fun i role -> (role, if i = 0 then 3.0 else if i = last then 100.0 else 20.0))
            names)
        ~cuts:[ [ 4_500 ]; [ 1; 4_097; 8_999 ] ])
    [ (`Equal, "equal"); (`Linear, "linear") ]

(* The prefix the sweep reads is the VRF output's first 7 bytes, and
   its fraction is the output's hash fraction, bit for bit. *)
let prefix_matches_output () =
  let d = Drbg.create ~seed:"sim-sweep-prefix" in
  let pks = random_pks d 8 in
  List.iter
    (fun seed_len ->
      let seed = Drbg.random_bytes d seed_len in
      let inputs = Array.map (fun role -> Sortition.vrf_input ~seed ~role) boundary_roles in
      let batch = Vrf.Sim_sweep.create inputs in
      let s = Vrf.Sim_sweep.scratch () in
      Array.iter
        (fun pk ->
          Vrf.Sim_sweep.set_pk batch s pk;
          Array.iteri
            (fun i input ->
              let h = Option.get (Vrf.sim.verify ~pk ~input ~proof:"") in
              let expected = ref 0 in
              for b = 0 to 6 do
                expected := (!expected lsl 8) lor Char.code h.[b]
              done;
              let v = Vrf.Sim_sweep.prefix56 batch s i in
              Alcotest.(check int)
                (Printf.sprintf "%d-byte seed, input %d: prefix" seed_len i)
                !expected v;
              Alcotest.(check bool)
                (Printf.sprintf "%d-byte seed, input %d: fraction" seed_len i)
                true
                (Float.equal (Sortition.hash_fraction h) (Sortition.prefix_fraction v)))
            inputs)
        pks)
    [ 0; 21; 22; 32; 55; 100 ]

(* Just below the threshold select_j selects nothing; at it, something.
   The cutoff splits the 56-bit prefixes at the same place. *)
let zero_threshold_exact () =
  List.iter
    (fun (w, p) ->
      let c0 = Binomial.zero_threshold ~w ~p in
      Alcotest.(check int) "below" 0 (Binomial.select_j ~frac:(Float.pred c0) ~w ~p);
      Alcotest.(check bool) "at" true (Binomial.select_j ~frac:c0 ~w ~p > 0);
      let v = Sortition.prefix_cutoff c0 in
      Alcotest.(check bool) "cutoff - 1 below" true (Sortition.prefix_fraction (v - 1) < c0);
      Alcotest.(check bool) "cutoff at or above" true (Sortition.prefix_fraction v >= c0))
    [ (1, 0.5); (1_000, 2e-5); (1_000, 1e-3); (50, 0.2) ];
  Alcotest.(check int) "cutoff of 0" 0 (Sortition.prefix_cutoff 0.0);
  Alcotest.(check int) "cutoff past 1" (1 lsl 56) (Sortition.prefix_cutoff infinity)

let suite =
  [
    ( "sim-sweep",
      [
        t "prefix = first 7 output bytes" prefix_matches_output;
        t "zero threshold and prefix cutoff are exact" zero_threshold_exact;
        t "seed and role lengths, equal and linear stakes" seed_lengths;
        t "round window, whole range vs split" round_window;
      ] );
  ]
