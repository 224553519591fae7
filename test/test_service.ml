open Helpers
module S = Lr_service.Service
module W = Lr_service.Workload
module Op = Lr_service.Op
module Shard = Lr_service.Shard
module Metrics = Lr_service.Metrics
module Node = Lr_graph.Node

let spec ?(shards = 6) ?(nodes = 12) ?(extra_edges = 8) ?(seed = 5)
    ?(ops = 600) ?(mix = W.default_mix) ?(pmix = W.no_packets) ?(burst = 4)
    ?(skew = 0.8) ?(stats_every = 0) () =
  { W.shards; nodes; extra_edges; seed; ops; mix; pmix; burst; skew;
    stats_every }

let churny = { W.route = 60; churn = 35; crash = 5 }

(* Tests exist to exercise the multi-domain protocol, so they pin the
   requested loop count instead of letting the service clamp it to the
   (possibly single-domain) CI host. *)
let with_service ?trace_dir ?(jobs = 1) ?(queue_bound = 128) spec f =
  let cfg = { S.default_config with S.jobs; queue_bound; pin_loops = true } in
  let svc = S.create ?trace_dir cfg (W.shard_configs spec) in
  Fun.protect ~finally:(fun () -> S.shutdown svc) (fun () -> f svc)

let run_spec ?(jobs = 1) ?(queue_bound = 128) spec =
  with_service ~jobs ~queue_bound spec (fun svc ->
      let responses = S.run svc (W.generate spec) in
      (responses, S.metrics svc))

(* The headline guarantee: responses, counters, and hence the
   fingerprint depend only on the op stream — never on the domain
   count.  The bound is generous (nothing rejects), because *which*
   ops a full ring sheds under free-running dispatch is wall-clock. *)
let test_deterministic_across_jobs () =
  let s = spec ~mix:churny ~stats_every:71 () in
  let r1, m1 = run_spec ~jobs:1 ~queue_bound:1024 s in
  List.iter
    (fun jobs ->
      let rj, mj = run_spec ~jobs ~queue_bound:1024 s in
      check_bool (Printf.sprintf "responses jobs=%d = jobs=1" jobs) true
        (r1 = rj);
      check_bool
        (Printf.sprintf "fingerprint jobs=%d = jobs=1" jobs)
        true
        (S.fingerprint r1 m1 = S.fingerprint rj mj))
    [ 2; 3; 8 ]

(* Packet ops through the full service: the forwarding planes are
   seeded from each shard's current graph snapshot (never engine
   heights), so the whole packet surface — responses, packet counters,
   the fingerprint — must stay byte-identical across engines and job
   counts. *)
let packet_spec ?(ops = 900) () =
  spec ~mix:{ W.route = 40; churn = 8; crash = 2 } ~pmix:W.default_pmix
    ~burst:5 ~ops ~stats_every:113 ()

(* The differential: with a bound above the op count nothing can be
   rejected, so ring dispatch at any domain count must answer every op
   exactly as applying it to its own shard in stream order does. *)
let test_matches_sequential_reference () =
  List.iter
    (fun (what, s) ->
      let ops = W.generate s in
      let reference = sequential (W.shard_configs s) ops in
      List.iter
        (fun jobs ->
          with_service ~jobs ~queue_bound:(Array.length ops + 1) s (fun svc ->
              check_matches_sequential
                (Printf.sprintf "%s stream at jobs=%d" what jobs)
                reference (S.run svc ops)))
        [ 1; 2; 4 ])
    [ ("churny", spec ~mix:churny ~ops:800 ~stats_every:97 ());
      ("packet", packet_spec ()) ]

let test_validation_clean_and_consistent () =
  let s = spec ~mix:churny ~ops:800 () in
  with_service s (fun svc ->
      let responses = S.run svc (W.generate s) in
      let m = S.metrics svc in
      check_int "zero validation failures" 0
        m.Metrics.snapshot_totals.Metrics.validation_failures;
      check_bool "some routes answered" true
        (m.Metrics.snapshot_totals.Metrics.routes > 0);
      for i = 0 to S.num_shards svc - 1 do
        check_bool
          (Printf.sprintf "shard %d consistent after churn" i)
          true
          (Shard.consistent (S.shard svc i))
      done;
      ignore responses)

let test_every_op_accounted () =
  let s = spec ~mix:churny ~ops:700 ~stats_every:50 () in
  let responses, m = run_spec s in
  let t = m.Metrics.snapshot_totals in
  check_int "served + rejected = ops" s.W.ops (t.Metrics.served + t.Metrics.rejected);
  check_int "no leaked rejections" t.Metrics.rejected (S.rejected_in responses);
  (* per-shard totals roll up to the global ones *)
  let shard_served =
    Array.fold_left
      (fun acc per -> acc + per.Metrics.served)
      0 m.Metrics.snapshot_per_shard
  in
  check_int "per-shard served rolls up" t.Metrics.served
    (shard_served + t.Metrics.stats_ops)

let test_free_running_overload_accounting () =
  (* Free-running backpressure: *which* ops a full ring sheds is
     wall-clock, but the accounting invariants are not — every op is
     served or rejected, rejections match the counter, occupancy
     respects the ring capacity, and shards stay consistent.  A hot
     shard against a tiny ring must shed load once a resident loop
     consumes it; with jobs=1 the dispatcher is the consumer and
     serves a full ring inline, so nothing may be rejected. *)
  let s = spec ~shards:4 ~ops:900 ~skew:3.0 ~stats_every:113 () in
  let ops = W.generate s in
  List.iter
    (fun jobs ->
      with_service ~jobs ~queue_bound:2 s (fun svc ->
          let responses = S.run svc ops in
          let m = S.metrics svc in
          let t = m.Metrics.snapshot_totals in
          check_int
            (Printf.sprintf "served + rejected = ops at jobs=%d" jobs)
            s.W.ops
            (t.Metrics.served + t.Metrics.rejected);
          check_int
            (Printf.sprintf "no leaked rejections at jobs=%d" jobs)
            t.Metrics.rejected (S.rejected_in responses);
          check_bool
            (Printf.sprintf "ring occupancy bounded at jobs=%d" jobs)
            true
            (m.Metrics.rings_totals.Metrics.max_depth <= 2);
          if jobs = 1 then
            check_int "a single domain serves a full ring inline" 0
              t.Metrics.rejected
          else
            check_bool
              (Printf.sprintf "overload sheds ops at jobs=%d" jobs)
              true (t.Metrics.rejected > 0);
          for i = 0 to S.num_shards svc - 1 do
            check_bool
              (Printf.sprintf "shard %d consistent at jobs=%d" i jobs)
              true
              (Shard.consistent (S.shard svc i))
          done))
    [ 1; 2; 4 ]

let test_ring_metrics_sane () =
  (* Ring observability is wall-clock-shaped, but its arithmetic is
     not: depth samples count one post-push sample per admitted op,
     the mean can never exceed the max, and stolen ops are bounded by
     steal-attempted claims times the batch size. *)
  let s = spec ~mix:churny ~ops:800 ~stats_every:101 () in
  let _, m = run_spec ~jobs:3 ~queue_bound:1024 s in
  let r = m.Metrics.rings_totals in
  let t = m.Metrics.snapshot_totals in
  check_int "one depth sample per admitted op"
    (t.Metrics.served - t.Metrics.stats_ops)
    r.Metrics.depth_samples;
  check_bool "mean depth <= max depth" true
    (r.Metrics.mean_depth <= float_of_int r.Metrics.max_depth);
  check_bool "max depth positive" true (r.Metrics.max_depth > 0);
  check_bool "stolen ops need steal attempts" true
    (r.Metrics.stolen = 0 || r.Metrics.steal_attempts > 0);
  (* the per-shard rings roll up to the aggregate *)
  let sum_stolen =
    Array.fold_left
      (fun acc (pr : Metrics.ring_totals) -> acc + pr.Metrics.stolen)
      0 m.Metrics.snapshot_rings
  in
  check_int "per-shard stolen rolls up" r.Metrics.stolen sum_stolen

let test_stats_barrier_counts () =
  let s = spec ~ops:400 ~stats_every:60 ~mix:churny () in
  (* A snapshot may only be taken once every admitted op has completed:
     at jobs=1 the dispatcher drains the rings it has been filling, at
     jobs=3 it waits for the shard loops.  The default bound (128)
     clears stats_every, so nothing is rejected and every snapshot is
     pinned by the stream alone. *)
  let snapshots jobs =
    let responses, _ = run_spec ~jobs s in
    Array.to_list responses
    |> List.mapi (fun i r ->
           match r with
           | Op.Snapshot t ->
               (* served = every op before this index, plus this one *)
               let what = Printf.sprintf "jobs=%d snapshot at op %d" jobs i in
               check_int (what ^ " counts all prior ops") (i + 1)
                 t.Metrics.served;
               Some t
           | _ -> None)
  in
  let at1 = snapshots 1 in
  check_bool "the stream takes snapshots" true (List.exists Option.is_some at1);
  check_bool "snapshots at jobs=3 = jobs=1" true (snapshots 3 = at1)

let test_crashes_fail_over () =
  let s = spec ~shards:3 ~nodes:10 ~ops:300 ~mix:{ W.route = 50; churn = 0; crash = 50 } () in
  with_service s (fun svc ->
      let responses = S.run svc (W.generate s) in
      let m = S.metrics svc in
      check_bool "elections happened" true
        (m.Metrics.snapshot_totals.Metrics.crashes > 0);
      check_int "zero validation failures across failovers" 0
        m.Metrics.snapshot_totals.Metrics.validation_failures;
      let epochs = ref 0 in
      for i = 0 to S.num_shards svc - 1 do
        let sh = S.shard svc i in
        epochs := !epochs + Shard.epoch sh;
        check_bool (Printf.sprintf "shard %d consistent" i) true
          (Shard.consistent sh);
        check_bool (Printf.sprintf "shard %d dead set matches epochs" i) true
          (Node.Set.cardinal (Shard.dead sh) = Shard.epoch sh)
      done;
      check_bool "epochs advanced" true (!epochs > 0);
      let leaders =
        Array.fold_left
          (fun acc r ->
            match r with Op.New_destination _ -> acc + 1 | _ -> acc)
          0 responses
      in
      check_int "every election produced a New_destination response"
        m.Metrics.snapshot_totals.Metrics.crashes leaders)

let test_shard_unit_behaviour () =
  let s = spec ~shards:1 ~nodes:8 () in
  let shard =
    Shard.create ~rule:Lr_routing.Maintenance.Partial_reversal ~id:0
      (W.shard_config s 0)
  in
  let dest = Shard.destination shard in
  (* routes reach the destination *)
  Node.Set.iter
    (fun u ->
      let o = Shard.apply shard (Op.Route { shard = 0; src = u }) in
      match o.Shard.response with
      | Op.Path path ->
          check_int "path ends at destination" dest
            (List.nth path (List.length path - 1));
          check_int "validated" 0 o.Shard.validation_failures
      | Op.No_route -> check_int "honest refusal" 0 o.Shard.validation_failures
      | _ -> Alcotest.fail "route answered with a non-route response")
    (Lr_graph.Digraph.nodes (Shard.graph shard));
  (* inapplicable churn is a Noop, not an error *)
  let o = Shard.apply shard (Op.Link_down { shard = 0; u = 0; v = 0 }) in
  check_bool "self-loop down is a noop" true (o.Shard.response = Op.Noop);
  let o = Shard.apply shard (Op.Route { shard = 0; src = 999 }) in
  check_bool "unknown source is a noop" true (o.Shard.response = Op.Noop);
  let o =
    Shard.apply shard
      (Op.Corrupt { shard = 0; seed = 1; magnitude = Shard.max_magnitude + 1 })
  in
  check_bool "undrawable corrupt magnitude is a noop" true (o.Shard.response = Op.Noop);
  (* a crash elects a live leader and bumps the epoch *)
  let o = Shard.apply shard (Op.Crash_destination { shard = 0 }) in
  (match o.Shard.response with
  | Op.New_destination { leader; _ } ->
      check_bool "leader is live" true
        (not (Node.Set.mem leader (Shard.dead shard)));
      check_bool "old destination is dead" true
        (Node.Set.mem dest (Shard.dead shard));
      check_int "epoch bumped" 1 (Shard.epoch shard);
      check_bool "consistent after failover" true (Shard.consistent shard)
  | Op.Noop -> Alcotest.fail "crash with live candidates answered Noop"
  | _ -> Alcotest.fail "crash answered with an unexpected response");
  check_bool "Stats never reaches a shard" true
    (try ignore (Shard.apply shard Op.Stats); false
     with Invalid_argument _ -> true)

let test_trace_dir_records_auditable_traces () =
  let s = spec ~shards:3 ~nodes:8 ~ops:50 () in
  let dir = Filename.temp_file "lrsvc" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () ->
      with_service ~trace_dir:dir s (fun svc ->
          ignore (S.run svc (W.generate s)));
      for i = 0 to s.W.shards - 1 do
        let path = Filename.concat dir (Printf.sprintf "shard-%03d.lrt" i) in
        check_bool (Printf.sprintf "trace for shard %d exists" i) true
          (Sys.file_exists path);
        match Lr_trace.Audit.run path with
        | Error e -> Alcotest.failf "audit of %s failed: %s" path e
        | Ok report ->
            check_bool
              (Printf.sprintf "shard %d trace audits clean" i)
              true
              (Lr_trace.Audit.clean report)
      done)

let test_create_rejects_bad_config () =
  let s = spec ~shards:2 () in
  let configs = W.shard_configs s in
  List.iter
    (fun cfg ->
      check_bool "bad config rejected" true
        (try ignore (S.create cfg configs); false
         with Invalid_argument _ -> true))
    [
      { S.default_config with S.jobs = 0 };
      { S.default_config with S.queue_bound = 0 };
    ];
  check_bool "empty shard array rejected" true
    (try ignore (S.create S.default_config [||]); false
     with Invalid_argument _ -> true)

(* The two maintenance tiers must be indistinguishable through the
   service: same responses, counters and fingerprint on a churny
   workload (the fast engine replicates the reference's sink-selection
   order exactly). *)
let test_engines_agree () =
  let s = spec ~mix:churny ~ops:1_200 ~stats_every:301 () in
  let ops = W.generate s in
  let run engine =
    let cfg = { S.default_config with S.engine } in
    let svc = S.create cfg (W.shard_configs s) in
    Fun.protect
      ~finally:(fun () -> S.shutdown svc)
      (fun () ->
        let responses = S.run svc ops in
        let m = S.metrics svc in
        (responses, S.fingerprint responses m,
         m.Metrics.snapshot_totals.Metrics.validation_failures))
  in
  let rf, fpf, vf_fast = run Shard.Fast in
  let rr, fpr, vf_ref = run Shard.Reference in
  check_bool "responses identical across engines" true (rf = rr);
  check_bool "fingerprints identical across engines" true (fpf = fpr);
  check_int "no validation failures (fast)" 0 vf_fast;
  check_int "no validation failures (reference)" 0 vf_ref

let test_packet_ops_deterministic () =
  let s = packet_spec () in
  let r1, m1 = run_spec ~jobs:1 ~queue_bound:1024 s in
  let t = m1.Metrics.snapshot_totals in
  check_bool "packets injected" true (t.Metrics.packets_in > 0);
  check_bool "packets delivered" true (t.Metrics.packets_out > 0);
  check_bool "queue peak observed" true (t.Metrics.packet_queue_peak > 0);
  check_bool "delivered cannot exceed injected" true
    (t.Metrics.packets_out <= t.Metrics.packets_in);
  List.iter
    (fun jobs ->
      let rj, mj = run_spec ~jobs ~queue_bound:1024 s in
      check_bool (Printf.sprintf "packet responses jobs=%d" jobs) true
        (r1 = rj);
      check_bool (Printf.sprintf "packet fingerprint jobs=%d" jobs) true
        (S.fingerprint r1 m1 = S.fingerprint rj mj))
    [ 2; 4 ]

let test_packet_ops_across_engines () =
  let s = packet_spec ~ops:700 () in
  let ops = W.generate s in
  let run engine =
    let cfg = { S.default_config with S.engine } in
    let svc = S.create cfg (W.shard_configs s) in
    Fun.protect
      ~finally:(fun () -> S.shutdown svc)
      (fun () ->
        let responses = S.run svc ops in
        let m = S.metrics svc in
        (responses, S.fingerprint responses m))
  in
  let rf, fpf = run Shard.Fast in
  let rr, fpr = run Shard.Reference in
  check_bool "packet responses identical across engines" true (rf = rr);
  check_bool "packet fingerprints identical across engines" true (fpf = fpr)

let test_packet_shard_behaviour () =
  let s = spec ~shards:1 ~nodes:8 () in
  let shard =
    Shard.create ~rule:Lr_routing.Maintenance.Partial_reversal ~id:0
      (W.shard_config s 0)
  in
  (* inject, then forward until the plane drains *)
  let o = Shard.apply shard (Op.Inject { shard = 0; src = 0; count = 3 }) in
  (match o.Shard.response with
  | Op.Injected { accepted; dropped } ->
      check_int "all accepted" 3 accepted;
      check_int "none dropped" 0 dropped
  | _ -> Alcotest.fail "inject answered with a non-inject response");
  let rec drain budget delivered =
    if budget = 0 then delivered
    else
      let o = Shard.apply shard (Op.Forward { shard = 0; slots = 8 }) in
      match o.Shard.response with
      | Op.Forwarded { delivered = d; queued; _ } ->
          if queued = 0 then delivered + d else drain (budget - 1) (delivered + d)
      | _ -> Alcotest.fail "forward answered with a non-forward response"
  in
  check_int "all packets delivered" 3 (drain 64 0);
  (* the queue bound of 64 drops the overflow of a 70-packet burst *)
  let o = Shard.apply shard (Op.Inject { shard = 0; src = 0; count = 70 }) in
  (match o.Shard.response with
  | Op.Injected { accepted; dropped } ->
      check_int "bound respected" 64 accepted;
      check_int "overflow dropped" 6 dropped
  | _ -> Alcotest.fail "inject answered with a non-inject response");
  (* invalid packet ops are Noops, not errors *)
  let o = Shard.apply shard (Op.Inject { shard = 0; src = 999; count = 1 }) in
  check_bool "unknown source is a noop" true (o.Shard.response = Op.Noop);
  let o = Shard.apply shard (Op.Forward { shard = 0; slots = 0 }) in
  check_bool "zero slots is a noop" true (o.Shard.response = Op.Noop);
  (* a crash discards the plane: the next packet op rebuilds it against
     the new destination and still works *)
  ignore (Shard.apply shard (Op.Crash_destination { shard = 0 }));
  let o = Shard.apply shard (Op.Inject { shard = 0; src = 0; count = 1 }) in
  (match o.Shard.response with
  | Op.Injected _ | Op.Noop -> ()
  | _ -> Alcotest.fail "post-crash inject answered unexpectedly");
  check_bool "consistent with a plane attached" true (Shard.consistent shard)

(* Pin the failover tie-break: with two equal-cardinality components,
   the greater leader id (Node.compare) wins — on both engines.  The
   graph is a path 0-1-[2]-3-4 with destination 2; crashing it leaves
   {0,1} (leader 1) and {3,4} (leader 4). *)
let test_crash_tiebreak_pinned () =
  let config =
    Linkrev.Config.make_exn
      (Lr_graph.Digraph.of_directed_edges [ (0, 1); (1, 2); (4, 3); (3, 2) ])
      ~destination:2
  in
  List.iter
    (fun engine ->
      let shard =
        Shard.create ~engine ~rule:Lr_routing.Maintenance.Partial_reversal
          ~id:0 config
      in
      let o = Shard.apply shard (Op.Crash_destination { shard = 0 }) in
      match o.Shard.response with
      | Op.New_destination { leader; _ } ->
          check_int "tie broken toward the greater leader id" 4 leader;
          check_int "new destination adopted" 4 (Shard.destination shard)
      | r ->
          Alcotest.failf "expected New_destination, got %s"
            (Op.response_to_string r))
    [ Shard.Fast; Shard.Reference ]

let () =
  Alcotest.run "service"
    [
      suite "service"
        [
          case "deterministic across job counts" test_deterministic_across_jobs;
          case "matches the sequential reference"
            test_matches_sequential_reference;
          case "validation clean, shards consistent"
            test_validation_clean_and_consistent;
          case "every op accounted for" test_every_op_accounted;
          case "free-running overload accounting holds"
            test_free_running_overload_accounting;
          case "ring metrics arithmetic sane" test_ring_metrics_sane;
          case "stats barrier counts all prior ops" test_stats_barrier_counts;
          case "destination crashes fail over" test_crashes_fail_over;
          case "shard unit behaviour" test_shard_unit_behaviour;
          case "trace dir records auditable traces"
            test_trace_dir_records_auditable_traces;
          case "bad configs rejected" test_create_rejects_bad_config;
          case "fast and reference engines agree" test_engines_agree;
          case "packet ops deterministic everywhere"
            test_packet_ops_deterministic;
          case "packet ops agree across engines"
            test_packet_ops_across_engines;
          case "packet shard behaviour" test_packet_shard_behaviour;
          case "failover tie-break pinned" test_crash_tiebreak_pinned;
        ];
    ]
