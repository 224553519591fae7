(* The four replay workloads.  Each is a pure function of its seed: the
   shard topologies and the op stream come from [Lr_service.Workload]
   (and, for [packet_chaos], an [Lr_chaos.Schedule] woven into it), so
   the same seed replays the same inputs on every host. *)

module Wl = Lr_service.Workload
module Op = Lr_service.Op
module Schedule = Lr_chaos.Schedule
module Fault = Lr_chaos.Fault

type t = {
  name : string;
  default_seed : int;
  shape : seed:int -> Wl.spec;
  crashes : int;
      (* Destination crashes spliced into the stream at even spacing.
         A fixed count instead of a mix weight: at ~0.5 s per crash on
         1024-node shards, a binomial crash count would make the run
         time a function of the seed rather than of the code. *)
  faults : int;  (* Chaos faults woven into the stream; 0 = none. *)
  pin : string;  (* Service fingerprint at the default seed and full size. *)
}

let routing ~shards ~nodes ~extra_edges ~ops ~churn ~skew ~stats_every ~seed =
  {
    Wl.shards;
    nodes;
    extra_edges;
    seed;
    ops;
    mix = { Wl.route = 900; churn; crash = 0 };
    pmix = Wl.no_packets;
    burst = 4;
    skew;
    stats_every;
  }

(* The D-S1 [large_topology] shape: 64 shards of 1024 nodes. *)
let large ~ops ~churn ~stats_every =
  routing ~shards:64 ~nodes:1024 ~extra_edges:256 ~ops ~churn ~skew:1.2
    ~stats_every

let all =
  [
    {
      name = "small_routes";
      default_seed = 42;
      shape =
        routing ~shards:16 ~nodes:24 ~extra_edges:16 ~ops:1_000_000 ~churn:100
          ~skew:0.8 ~stats_every:1_000;
      crashes = 0;
      faults = 0;
      pin = "d6fdbc478fe26622a6eb5d7ffd948931";
    };
    {
      name = "large_churn";
      default_seed = 1024;
      shape = large ~ops:500_000 ~churn:100 ~stats_every:500;
      crashes = 0;
      faults = 0;
      pin = "49a8c62b5f59f890ce64672e00386ed2";
    };
    {
      name = "large_failover";
      default_seed = 1024;
      shape = large ~ops:4_000 ~churn:98 ~stats_every:4_000;
      crashes = 8;
      faults = 0;
      pin = "71cf8d2cdc8d32ffc0ed4058ddfb5477";
    };
    {
      name = "packet_chaos";
      default_seed = 7;
      shape =
        (fun ~seed ->
          {
            Wl.shards = 8;
            nodes = 128;
            extra_edges = 64;
            seed;
            ops = 1_000_000;
            mix = { Wl.route = 900; churn = 100; crash = 0 };
            pmix = { Wl.inject = 30; forward = 50 };
            burst = 4;
            skew = 0.8;
            stats_every = 500;
          });
      crashes = 0;
      faults = 1_200;
      pin = "fb81977d34e15182220b8e3e0ce47464";
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

type inputs = {
  spec : Wl.spec;
  configs : Linkrev.Config.t array;
  ops : Op.t array;
  generate_s : float;  (* op stream, crash splicing and fault weaving *)
  configs_s : float;  (* shard topologies *)
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let timed f =
  let t0 = now_ns () in
  let x = f () in
  (x, float_of_int (now_ns () - t0) *. 1e-9)

(* Insert [k] destination crashes before evenly spaced base ops,
   alternating between shards 0 and 1, the two most popular.  Two
   topologies average out part of the seed-to-seed spread of the
   failover cost.  Keeping crashes off the later shards keeps the sojourn times
   comparable across seeds: the jobs=1 dispatcher drains the rings in
   shard order, so every op queued on shards 2..63 (58% of them under
   skew 1.2) waits for all the crashes, and the median sits well
   inside that group. *)
let splice_crashes k base =
  if k = 0 then base
  else begin
    let n = Array.length base in
    let at j = ((2 * j) + 1) * n / (2 * k) in
    let out = ref [] and next = ref 0 in
    Array.iteri
      (fun i op ->
        if !next < k && i >= at !next then begin
          out := Op.Crash_destination { shard = !next mod 2 } :: !out;
          incr next
        end;
        out := op :: !out)
      base;
    Array.of_list (List.rev !out)
  end

(* Height faults are capped: corrupt magnitude 16 and flipped bits below
   6.  With the schedule's defaults (magnitude 1024, any of 31 bits) the
   healed heights keep a spread so wide that a later link event on the
   same shard exceeds the engine's ordinary 4n^2+1000 stabilization
   budget and raises: at 50k base ops, seed 2 after a bit-21 flip, and
   seeds 7 and 19 after corrupt heals even with flips capped.  The
   benchmark only replays streams on which no op fails.
   Crash bursts are dropped and left to [large_failover]: at ~13 ms per
   crash on 128-node shards, their binomial count (45 to 64 crashes
   between two seeds) would set the run time by seed. *)
let fault_magnitude = 16
let max_flip_bit = 5

let tame = function
  | Fault.Flip_route_bit f ->
      Some (Fault.Flip_route_bit { f with bit = f.bit mod (max_flip_bit + 1) })
  | Fault.Crash_burst _ -> None
  | f -> Some f

(* [Schedule.weave]'s merge, redone over the tamed entries (a
   [Schedule.t] cannot be rebuilt from them): a fault at fraction [at]
   of the run lands after the first [floor (at * (n + 1))] base ops. *)
let weave ~graphs entries base =
  let n = Array.length base in
  let out = ref [] in
  let emit (e : Schedule.entry) =
    Option.iter
      (fun f -> List.iter (fun op -> out := op :: !out) (Fault.compile ~graphs f))
      (tame e.fault)
  in
  let pending = ref entries in
  let rec flush i =
    match !pending with
    | (e : Schedule.entry) :: rest
      when int_of_float (e.at *. float_of_int (n + 1)) <= i ->
        emit e;
        pending := rest;
        flush i
    | _ -> ()
  in
  Array.iteri
    (fun i op ->
      flush i;
      out := op :: !out)
    base;
  List.iter emit !pending;
  Array.of_list (List.rev !out)

(* [scale] shrinks the op stream, crashes and faults for the smoke
   test; the topology never shrinks, so set-up cost stays real. *)
let inputs ?(scale = 1.0) w ~seed =
  let full = w.shape ~seed in
  let shrink k = max 1 (int_of_float (scale *. float_of_int k)) in
  let spec = { full with Wl.ops = shrink full.Wl.ops } in
  let configs, configs_s = timed (fun () -> Wl.shard_configs spec) in
  let ops, generate_s =
    timed (fun () ->
        let crashes = if w.crashes = 0 then 0 else shrink w.crashes in
        let ops = splice_crashes crashes (Wl.generate spec) in
        if w.faults = 0 then ops
        else
          let sched =
            Schedule.generate
              { Schedule.count = shrink w.faults; seed; magnitude = fault_magnitude }
              ~shards:spec.Wl.shards ~nodes:spec.Wl.nodes
          in
          let graphs =
            Array.map (fun (c : Linkrev.Config.t) -> c.Linkrev.Config.initial) configs
          in
          weave ~graphs (Schedule.entries sched) ops)
  in
  { spec; configs; ops; generate_s; configs_s }
