(* Host-speed sampler. The benchmark runs on small shared hosts whose
   speed drifts by 20-30% over minutes, with other tenants' load on the
   memory system; no repetition count or statistic removes that drift
   from a wall time, and a kernel timed only between repetitions does not
   follow it. So a timer signal runs a fixed kernel every [interval]
   seconds throughout the run and records how long it took; the mean
   over a repetition says how fast the host ran in that repetition.

   The kernel is built like the program's own work - short-lived
   allocation, a hash table, a persistent map and MD5 hashing - and uses
   nothing from the libraries under test, so a change to the program
   cannot change it. A minor collection before each sample empties the
   minor heap, so the kernel never collects the program's young data and
   its time does not depend on the program's heap. *)

module Int_map = Map.Make (Int)

let interval = 0.2

(* Kernel time on the host the nominal rates refer to: [scale] maps a
   repetition's wall time onto a host on which the kernel takes this
   long. *)
let nominal_s = 0.002

let kernel () : int =
  let tbl = Hashtbl.create 256 in
  let m = ref Int_map.empty in
  let acc = ref 0 in
  for i = 0 to 3_000 do
    let key = i * 7919 land 255 in
    let d = Digest.string (string_of_int i) in
    Hashtbl.replace tbl key (d, [ i; i + 1; i + 2 ]);
    m := Int_map.add key i !m;
    acc := !acc + Char.code d.[0] + (Int_map.find key !m land 1)
  done;
  !acc

(* (start, duration) of every sample, newest first. *)
let samples : (float * float) list ref = ref []

let sample (_ : int) : unit =
  Gc.minor ();
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (kernel ()));
  samples := (t0, Unix.gettimeofday () -. t0) :: !samples

let set_timer (period : float) : unit =
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = period; it_value = period })

let start () : unit =
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle sample);
  set_timer interval

let stop () : unit =
  set_timer 0.0;
  Sys.set_signal Sys.sigalrm Sys.Signal_default

(* Mean kernel time over the samples started in [t0, t1], or over every
   sample when none fell in the window. *)
let mean_between (t0 : float) (t1 : float) : float =
  let mean l = List.fold_left (fun a (_, d) -> a +. d) 0.0 l /. float_of_int (List.length l) in
  match List.filter (fun (t, _) -> t >= t0 && t <= t1) !samples with
  | [] -> if !samples = [] then nominal_s else mean !samples
  | inside -> mean inside

(* Factor that turns a wall time measured in [t0, t1] into nominal-host
   time. *)
let scale (t0 : float) (t1 : float) : float = nominal_s /. mean_between t0 t1
