open Lr_service

type spec = { count : int; seed : int; magnitude : int }

let default_seed = 42
let default_magnitude = 1024

let spec_to_string s =
  Printf.sprintf "%d:%d:%d" s.count s.seed s.magnitude

let spec_of_string text =
  let int_field name v =
    match int_of_string_opt v with
    | Some k -> Ok k
    | None -> Error (Printf.sprintf "chaos spec: bad %s %S" name v)
  in
  let ( let* ) = Result.bind in
  let* spec =
    match String.split_on_char ':' (String.trim text) with
    | [ k ] ->
        let* count = int_field "fault count" k in
        Ok { count; seed = default_seed; magnitude = default_magnitude }
    | [ k; s ] ->
        let* count = int_field "fault count" k in
        let* seed = int_field "seed" s in
        Ok { count; seed; magnitude = default_magnitude }
    | [ k; s; m ] ->
        let* count = int_field "fault count" k in
        let* seed = int_field "seed" s in
        let* magnitude = int_field "magnitude" m in
        Ok { count; seed; magnitude }
    | _ ->
        Error
          (Printf.sprintf
             "chaos spec: expected COUNT[:SEED[:MAGNITUDE]], got %S" text)
  in
  if spec.count < 0 then Error "chaos spec: negative fault count"
  else if spec.seed < 0 then Error "chaos spec: negative seed"
  else if spec.magnitude < 1 then Error "chaos spec: magnitude must be >= 1"
  else if spec.magnitude > Shard.max_magnitude then
    Error
      (Printf.sprintf "chaos spec: magnitude must be <= %d" Shard.max_magnitude)
  else Ok spec

type entry = { at : float; fault : Fault.t }
type t = entry list

let entries t = t

(* One fresh fault.  The weights lean on the height faults (they are
   what the convergence SLO measures); the structural faults keep the
   churn/crash/packet paths honest under the same schedule.  A
   partition is special-cased so the caller can schedule its heal. *)
let fresh_fault rng spec ~shards ~nodes =
  let shard = Random.State.int rng shards in
  let roll = Random.State.int rng 100 in
  if roll < 40 then
    `Fault
      (Fault.Corrupt_heights
         {
           shard;
           seed = Random.State.int rng 0x3fffffff;
           magnitude = spec.magnitude;
         })
  else if roll < 65 then
    `Fault
      (Fault.Flip_route_bit
         {
           shard;
           node = Random.State.int rng nodes;
           bit = Random.State.int rng 31;
         })
  else if roll < 80 then `Partition (shard, Random.State.int rng 0x3fffffff)
  else if roll < 90 then
    `Fault (Fault.Crash_burst { shard; count = 1 + Random.State.int rng 3 })
  else
    `Fault
      (Fault.Poison_queue
         {
           shard;
           src = Random.State.int rng nodes;
           count = 32 + Random.State.int rng 97;
         })

let generate spec ~shards ~nodes =
  if shards < 1 then invalid_arg "Schedule.generate: need at least one shard";
  if nodes < 2 then invalid_arg "Schedule.generate: need at least two nodes";
  if spec.count < 0 then invalid_arg "Schedule.generate: negative fault count";
  let rng = Random.State.make [| 0x6c72; 0x6368616f; spec.seed |] in
  let entries = ref [] in
  for _ = 1 to spec.count do
    let at = Random.State.float rng 1.0 in
    match fresh_fault rng spec ~shards ~nodes with
    | `Fault fault -> entries := { at; fault } :: !entries
    | `Partition (shard, cut_seed) ->
        (* A partition and, later in the run, its heal: one logical
           fault, two schedule entries deriving the same cut. *)
        let heal_at =
          at +. ((1.0 -. at) *. (0.25 +. Random.State.float rng 0.5))
        in
        entries :=
          { at = heal_at; fault = Fault.Heal_partition { shard; seed = cut_seed } }
          :: { at; fault = Fault.Partition { shard; seed = cut_seed } }
          :: !entries
  done;
  List.stable_sort (fun a b -> Float.compare a.at b.at) (List.rev !entries)

(* Weave the schedule into a base op stream with the simulation event
   queue: base op [i] fires at integer time [i + 1], each fault at its
   fractional time scaled to the same horizon, and the queue's
   insertion-order tie-break keeps the merge deterministic. *)
let weave t ~graphs base =
  let q = Lr_sim.Event_queue.create () in
  let horizon = float_of_int (Array.length base + 1) in
  Array.iteri
    (fun i op -> Lr_sim.Event_queue.add q ~time:(float_of_int (i + 1)) op)
    base;
  List.iter
    (fun e ->
      List.iter
        (fun op -> Lr_sim.Event_queue.add q ~time:(e.at *. horizon) op)
        (Fault.compile ~graphs e.fault))
    t;
  let out = Array.make (Lr_sim.Event_queue.size q) Op.Stats in
  let i = ref 0 in
  let rec drain () =
    match Lr_sim.Event_queue.pop q with
    | None -> ()
    | Some (_, op) ->
        out.(!i) <- op;
        incr i;
        drain ()
  in
  drain ();
  out
