(* The end-to-end measurement: closed batch replays of the whole op
   stream through [Service.run], untraced, each on a fresh
   [Service.create]. *)

module Svc = Lr_service.Service
module Metrics = Lr_service.Metrics
module Stats = Lr_analysis.Stats

(* [jobs = 1] is the serve default: the dispatcher serves the rings
   inline, so one domain does all the work and the numbers do not
   depend on how many cores the host lends the run.  [queue_bound =
   4096] clears every workload's [stats_every], so nothing is
   rejected. *)
let config = { Svc.default_config with Svc.jobs = 1; queue_bound = 4_096 }

type repeat = {
  setup_s : float;  (* [Service.create] *)
  wall_s : float;  (* [Service.run] *)
  snapshot : Metrics.snapshot;
  fingerprint : string;
  rejected_in : int;
}

(* [reference] is the first timed repeat and its responses.  A later
   repeat whose responses and counters equal those has the same
   fingerprint, so it is not rendered and hashed again: that costs as
   much as the replay itself. *)
let repeat ?reference (inputs : Workloads.inputs) ops =
  Gc.full_major ();
  let svc, setup_s = Workloads.timed (fun () -> Svc.create config inputs.configs) in
  Fun.protect
    ~finally:(fun () -> Svc.shutdown svc)
    (fun () ->
      let responses, wall_s = Workloads.timed (fun () -> Svc.run svc ops) in
      let snapshot = Svc.metrics svc in
      let fingerprint =
        match reference with
        | Some (r0, rs)
          when rs = responses
               && r0.snapshot.Metrics.snapshot_totals = snapshot.Metrics.snapshot_totals
               && r0.snapshot.Metrics.snapshot_per_shard
                  = snapshot.Metrics.snapshot_per_shard ->
            r0.fingerprint
        | _ -> Svc.fingerprint responses snapshot
      in
      ( { setup_s; wall_s; snapshot; fingerprint; rejected_in = Svc.rejected_in responses },
        responses ))

(* Live heap words the service adds, each side measured after a full
   major collection. *)
let mem_mb (inputs : Workloads.inputs) =
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live () in
  let svc = Svc.create config inputs.configs in
  let after = live () in
  Svc.shutdown svc;
  float_of_int ((after - before) * (Sys.word_size / 8)) /. 1_048_576.0

type t = {
  repeats : repeat list;  (* in run order *)
  mem_mb : float;
}

(* One discarded warm-up on the first tenth of the stream, then timed
   repeats until [seconds] have passed (at least [min_repeats]). *)
let run ?(min_repeats = 3) ~seconds (inputs : Workloads.inputs) =
  let mem_mb = mem_mb inputs in
  ignore (repeat inputs (Array.sub inputs.ops 0 (max 1 (Array.length inputs.ops / 10))));
  let deadline = Workloads.now_ns () + int_of_float (seconds *. 1e9) in
  let first, responses = repeat inputs inputs.ops in
  let rec loop acc k =
    if k >= min_repeats && Workloads.now_ns () >= deadline then List.rev acc
    else loop (fst (repeat ~reference:(first, responses) inputs inputs.ops) :: acc) (k + 1)
  in
  { repeats = loop [ first ] 1; mem_mb }

(* The same stream applied straight to fresh shards, without the
   service around them: [Service.run] minus this is the dispatch cost. *)
let bare (inputs : Workloads.inputs) =
  let shards =
    Array.mapi
      (fun id c -> Lr_service.Shard.create ~rule:config.Svc.rule ~id c)
      inputs.configs
  in
  Gc.full_major ();
  snd
    (Workloads.timed (fun () ->
         Array.iter
           (fun op ->
             match Lr_service.Op.shard_of op with
             | Some s -> ignore (Lr_service.Shard.apply shards.(s) op : Lr_service.Shard.outcome)
             | None -> ())
           inputs.ops))

(* Every end-to-end metric: name, unit and per-repeat samples. *)
let samples n t =
  let each f = List.map f t.repeats in
  [
    ("throughput_ops_s", "ops/s", each (fun r -> float_of_int n /. r.wall_s));
    ("sojourn_p50_ms", "ms", each (fun r -> 1e3 *. r.snapshot.Metrics.latency.Stats.p50));
    ("sojourn_p99_ms", "ms", each (fun r -> 1e3 *. r.snapshot.Metrics.latency.Stats.p99));
    ("setup_s", "s", each (fun r -> r.setup_s));
    ("mem_mb", "MB", [ t.mem_mb ]);
  ]
