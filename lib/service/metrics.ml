type counters = {
  mutable served : int;
  mutable routes : int;
  mutable no_routes : int;
  mutable link_events : int;
  mutable noops : int;
  mutable crashes : int;
  mutable partitions : int;
  mutable reversal_steps : int;
  mutable rejected : int;
  mutable validation_failures : int;
  mutable packets_in : int;
  mutable packets_dropped : int;
  mutable packets_out : int;
  mutable packet_reversals : int;
  mutable packet_hops : int;
  mutable packet_queue_peak : int;
  mutable faults : int;
}

type totals = {
  served : int;
  routes : int;
  no_routes : int;
  link_events : int;
  noops : int;
  crashes : int;
  partitions : int;
  reversal_steps : int;
  rejected : int;
  validation_failures : int;
  packets_in : int;
  packets_dropped : int;
  packets_out : int;
  packet_reversals : int;
  packet_hops : int;
  packet_queue_peak : int;
  faults : int;
  stats_ops : int;
}

(* Ring-occupancy and steal counters.  Occupancy fields are written by
   the single producer (the dispatcher samples depth after each push);
   steal counters are touched by whichever loop is acting as a thief
   at that moment, hence atomic.  All of them are wall-clock-shaped
   observability — like latency they are deliberately excluded from
   [totals_line] and the determinism fingerprint. *)
type ring_counters = {
  mutable max_depth : int;
  mutable depth_sum : int;
  mutable depth_samples : int;
  steal_attempts : int Atomic.t;
  stolen : int Atomic.t;
}

type ring_totals = {
  max_depth : int;
  mean_depth : float;
  depth_samples : int;
  steal_attempts : int;
  stolen : int;
}

(* Growable latency sample buffer — one per shard, appended to only by
   the worker currently owning that shard.  A sample arrives as int
   nanoseconds, so no float is boxed per op, and is kept in a float
   array, which the major GC never scans, unlike an int array. *)
type samples = { mutable data : float array; mutable len : int }

type t = {
  counters : counters array;
  rings : ring_counters array;
  latencies : samples array;
  (* Wall-clock heal time of each chaos op (Corrupt/Flip), per shard —
     the recovery SLO's sample set.  Non-deterministic, so excluded
     from [totals_line] and the fingerprint, like latency. *)
  recoveries : samples array;
  mutable stats_ops : int;
}

let fresh_counters () =
  {
    served = 0;
    routes = 0;
    no_routes = 0;
    link_events = 0;
    noops = 0;
    crashes = 0;
    partitions = 0;
    reversal_steps = 0;
    rejected = 0;
    validation_failures = 0;
    packets_in = 0;
    packets_dropped = 0;
    packets_out = 0;
    packet_reversals = 0;
    packet_hops = 0;
    packet_queue_peak = 0;
    faults = 0;
  }

let fresh_ring () =
  {
    max_depth = 0;
    depth_sum = 0;
    depth_samples = 0;
    steal_attempts = Atomic.make 0;
    stolen = Atomic.make 0;
  }

let create ~shards =
  if shards < 1 then invalid_arg "Metrics.create: need at least one shard";
  {
    counters = Array.init shards (fun _ -> fresh_counters ());
    rings = Array.init shards (fun _ -> fresh_ring ());
    latencies = Array.init shards (fun _ -> { data = Array.make 64 0.0; len = 0 });
    recoveries = Array.init shards (fun _ -> { data = Array.make 8 0.0; len = 0 });
    stats_ops = 0;
  }

let shard t i = t.counters.(i)
let bump_stats t = t.stats_ops <- t.stats_ops + 1

let record_depth t ~shard depth =
  let r = t.rings.(shard) in
  if depth > r.max_depth then r.max_depth <- depth;
  r.depth_sum <- r.depth_sum + depth;
  r.depth_samples <- r.depth_samples + 1

let note_steal_attempt t ~shard =
  Atomic.incr t.rings.(shard).steal_attempts

let note_stolen t ~shard n =
  ignore (Atomic.fetch_and_add t.rings.(shard).stolen n)

let push_sample b ns =
  if b.len = Array.length b.data then begin
    let grown = Array.make (2 * b.len) 0.0 in
    Array.blit b.data 0 grown 0 b.len;
    b.data <- grown
  end;
  b.data.(b.len) <- float_of_int ns;
  b.len <- b.len + 1

let record_latency t ~shard ns = push_sample t.latencies.(shard) ns
let record_recovery t ~shard ns = push_sample t.recoveries.(shard) ns

let totals_of_counters ~stats_ops (c : counters) =
  {
    served = c.served + stats_ops;
    routes = c.routes;
    no_routes = c.no_routes;
    link_events = c.link_events;
    noops = c.noops;
    crashes = c.crashes;
    partitions = c.partitions;
    reversal_steps = c.reversal_steps;
    rejected = c.rejected;
    validation_failures = c.validation_failures;
    packets_in = c.packets_in;
    packets_dropped = c.packets_dropped;
    packets_out = c.packets_out;
    packet_reversals = c.packet_reversals;
    packet_hops = c.packet_hops;
    packet_queue_peak = c.packet_queue_peak;
    faults = c.faults;
    stats_ops;
  }

let per_shard t =
  Array.map (totals_of_counters ~stats_ops:0) t.counters

let totals t =
  let acc = fresh_counters () in
  Array.iter
    (fun (c : counters) ->
      acc.served <- acc.served + c.served;
      acc.routes <- acc.routes + c.routes;
      acc.no_routes <- acc.no_routes + c.no_routes;
      acc.link_events <- acc.link_events + c.link_events;
      acc.noops <- acc.noops + c.noops;
      acc.crashes <- acc.crashes + c.crashes;
      acc.partitions <- acc.partitions + c.partitions;
      acc.reversal_steps <- acc.reversal_steps + c.reversal_steps;
      acc.rejected <- acc.rejected + c.rejected;
      acc.validation_failures <- acc.validation_failures + c.validation_failures;
      acc.packets_in <- acc.packets_in + c.packets_in;
      acc.packets_dropped <- acc.packets_dropped + c.packets_dropped;
      acc.packets_out <- acc.packets_out + c.packets_out;
      acc.packet_reversals <- acc.packet_reversals + c.packet_reversals;
      acc.packet_hops <- acc.packet_hops + c.packet_hops;
      acc.packet_queue_peak <- max acc.packet_queue_peak c.packet_queue_peak;
      acc.faults <- acc.faults + c.faults)
    t.counters;
  totals_of_counters ~stats_ops:t.stats_ops acc

let ring_totals_of (r : ring_counters) =
  {
    max_depth = r.max_depth;
    mean_depth =
      (if r.depth_samples = 0 then 0.0
       else float_of_int r.depth_sum /. float_of_int r.depth_samples);
    depth_samples = r.depth_samples;
    steal_attempts = Atomic.get r.steal_attempts;
    stolen = Atomic.get r.stolen;
  }

let per_shard_rings t = Array.map ring_totals_of t.rings

(* Aggregate ring observability: max of maxes, global mean, summed
   steal counters. *)
let rings_total t =
  let max_depth = ref 0
  and depth_sum = ref 0
  and depth_samples = ref 0
  and steal_attempts = ref 0
  and stolen = ref 0 in
  Array.iter
    (fun (r : ring_counters) ->
      if r.max_depth > !max_depth then max_depth := r.max_depth;
      depth_sum := !depth_sum + r.depth_sum;
      depth_samples := !depth_samples + r.depth_samples;
      steal_attempts := !steal_attempts + Atomic.get r.steal_attempts;
      stolen := !stolen + Atomic.get r.stolen)
    t.rings;
  {
    max_depth = !max_depth;
    mean_depth =
      (if !depth_samples = 0 then 0.0
       else float_of_int !depth_sum /. float_of_int !depth_samples);
    depth_samples = !depth_samples;
    steal_attempts = !steal_attempts;
    stolen = !stolen;
  }

type snapshot = {
  snapshot_totals : totals;
  snapshot_per_shard : totals array;
  snapshot_rings : ring_totals array;
  rings_totals : ring_totals;
  latency : Lr_analysis.Stats.percentiles;
  latency_samples : int;
  recovery : Lr_analysis.Stats.percentiles;
  recovery_samples : int;
}

let collect buffers =
  Array.fold_left
    (fun acc b ->
      let rec take i acc = if i < 0 then acc else take (i - 1) ((b.data.(i) *. 1e-9) :: acc) in
      take (b.len - 1) acc)
    [] buffers

let snapshot t =
  let all = collect t.latencies in
  let recov = collect t.recoveries in
  {
    snapshot_totals = totals t;
    snapshot_per_shard = per_shard t;
    snapshot_rings = per_shard_rings t;
    rings_totals = rings_total t;
    latency = Lr_analysis.Stats.percentiles all;
    latency_samples = List.length all;
    recovery = Lr_analysis.Stats.percentiles recov;
    recovery_samples = List.length recov;
  }

let totals_line c =
  Printf.sprintf
    "served=%d routes=%d no_routes=%d link_events=%d noops=%d crashes=%d \
     partitions=%d reversal_steps=%d rejected=%d validation_failures=%d \
     packets_in=%d packets_dropped=%d packets_out=%d packet_reversals=%d \
     packet_hops=%d packet_queue_peak=%d faults=%d stats_ops=%d"
    c.served c.routes c.no_routes c.link_events c.noops c.crashes c.partitions
    c.reversal_steps c.rejected c.validation_failures c.packets_in
    c.packets_dropped c.packets_out c.packet_reversals c.packet_hops
    c.packet_queue_peak c.faults c.stats_ops

let ring_line r =
  Printf.sprintf
    "max_depth=%d mean_depth=%.1f depth_samples=%d steal_attempts=%d stolen=%d"
    r.max_depth r.mean_depth r.depth_samples r.steal_attempts r.stolen
