(* In-memory span recorder for the traced benchmark run: every call the
   benchmark makes into a layer is wrapped in a span (name, start, end,
   parent), kept in memory and written out as JSON lines when the run
   ends. Disabled, [with_] is a direct call. *)

type span = { id : int; name : string; parent : int; start : float; stop : float }

let enabled = ref false
let recorded : span list ref = ref []
let stack = ref [ 0 ]
let next_id = ref 1

let with_ (name : string) (f : unit -> 'a) : 'a =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = List.hd !stack in
    stack := id :: !stack;
    let start = Unix.gettimeofday () in
    let finish () =
      stack := List.tl !stack;
      recorded := { id; name; parent; start; stop = Unix.gettimeofday () } :: !recorded
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* A marker span outside the call tree (parent -1), e.g. from the start
   of steady state to the wall time a round was certified. *)
let mark (name : string) ~(start : float) ~(stop : float) : unit =
  if !enabled then begin
    let id = !next_id in
    incr next_id;
    recorded := { id; name; parent = -1; start; stop } :: !recorded
  end

(* Self time per span name: duration minus the part covered by child
   spans, summed over every span of that name. *)
let self_times () : (string * float) list =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent) in
      Hashtbl.replace child_time s.parent (prev +. (s.stop -. s.start)))
    !recorded;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let own =
        s.stop -. s.start -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id)
      in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (prev +. own))
    !recorded;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [] |> List.sort compare

let write (path : string) : unit =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"start\":%.6f,\"end\":%.6f}\n" s.id s.name
        s.parent s.start s.stop)
    (List.rev !recorded);
  close_out oc
