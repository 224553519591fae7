(* D-S1: the sharded routing service — barrier-free ring dispatch vs
   the windowed oracle: throughput, latency SLOs, differential
   determinism (free-running must reproduce the oracle's responses and
   counters byte-for-byte), ring/steal observability, and bounded-queue
   backpressure under overload in both modes. *)

open Harness
module T = Lr_analysis.Table
module P = Lr_parallel.Pool
module Stats = Lr_analysis.Stats

type service_run = {
  sr_jobs : int;
  sr_mode : string;  (* "free" (ring dispatch) | "windowed" (oracle) *)
  sr_seconds : float;  (* best wall time over [sr_repeats] runs *)
  sr_repeats : int;
  sr_throughput : float;
  sr_latency : Lr_analysis.Stats.percentiles;
  sr_totals : Lr_service.Metrics.totals;
  sr_rings : Lr_service.Metrics.ring_totals;
  sr_fingerprint : string;
}

let fprint_service_run oc ~(base : service_run) (r : service_run) =
  Printf.fprintf oc
    "{\"jobs\": %d, \"mode\": %S, \"seconds\": %.4f, \"repeats\": %d, \
     \"throughput_ops_per_s\": %.0f, \"speedup_vs_1job\": %.2f,\n\
    \     \"latency_ms\": {\"p50\": %.4f, \"p95\": %.4f, \"p99\": %.4f, \
     \"p999\": %.4f, \"max\": %.4f},\n\
    \     \"ring\": {\"max_depth\": %d, \"mean_depth\": %.2f, \
     \"steal_attempts\": %d, \"stolen\": %d},\n\
    \     \"served\": %d, \"routes\": %d, \"no_routes\": %d, \
     \"rejected\": %d, \"reversal_steps\": %d, \"validation_failures\": %d,\n\
    \     \"fingerprint\": %S}"
    r.sr_jobs r.sr_mode r.sr_seconds r.sr_repeats r.sr_throughput
    (base.sr_seconds /. Float.max 1e-9 r.sr_seconds)
    (1000.0 *. r.sr_latency.Stats.p50)
    (1000.0 *. r.sr_latency.Stats.p95)
    (1000.0 *. r.sr_latency.Stats.p99)
    (1000.0 *. r.sr_latency.Stats.p999)
    (1000.0 *. r.sr_latency.Stats.max)
    r.sr_rings.Metrics.max_depth r.sr_rings.Metrics.mean_depth
    r.sr_rings.Metrics.steal_attempts r.sr_rings.Metrics.stolen
    r.sr_totals.Metrics.served r.sr_totals.Metrics.routes
    r.sr_totals.Metrics.no_routes r.sr_totals.Metrics.rejected
    r.sr_totals.Metrics.reversal_steps
    r.sr_totals.Metrics.validation_failures r.sr_fingerprint

let fprint_workload_spec oc (spec : Wl.spec) =
  Printf.fprintf oc
    "{\"shards\": %d, \"nodes\": %d, \"extra_edges\": %d, \"seed\": %d, \
     \"ops\": %d, \"skew\": %.2f}"
    spec.Wl.shards spec.Wl.nodes spec.Wl.extra_edges spec.Wl.seed spec.Wl.ops
    spec.Wl.skew

let write_results s ~max_jobs ~(spec : Wl.spec) runs ~deterministic
    ~free_matches_oracle ~overload_free:(of_rej, of_leak)
    ~overload_windowed:(ow_rej, ow_leak)
    ~large:(lspec, lruns, lcapped, lcap) =
  let base = List.find (fun r -> r.sr_jobs = 1 && r.sr_mode = "free") runs in
  write_json s ~experiment:"service" ~jobs:max_jobs (fun oc ->
      output_string oc "  \"workload\": ";
      fprint_workload_spec oc spec;
      Printf.fprintf oc ",\n  \"runs\": [\n";
      List.iteri
        (fun i r ->
          Printf.fprintf oc "    ";
          fprint_service_run oc ~base r;
          Printf.fprintf oc "%s\n"
            (if i = List.length runs - 1 then "" else ","))
        runs;
      Printf.fprintf oc
        "  ],\n\
        \  \"deterministic_across_jobs\": %b,\n\
        \  \"free_matches_deterministic\": %b,\n\
        \  \"overload\": {\n\
        \    \"free\": {\"jobs\": 2, \"rejected\": %d, \"leaked\": %b},\n\
        \    \"windowed\": {\"jobs\": 1, \"rejected\": %d, \"leaked\": %b}\n\
        \  },\n\
        \  \"large_topology\": {\n\
        \    \"workload\": "
        deterministic free_matches_oracle of_rej of_leak ow_rej ow_leak;
      fprint_workload_spec oc lspec;
      Printf.fprintf oc
        ",\n    \"seconds_cap\": %.0f,\n    \"capped\": %b,\n    \"runs\": [\n"
        lcap lcapped;
      let lbase = match lruns with r :: _ -> r | [] -> base in
      List.iteri
        (fun i r ->
          Printf.fprintf oc "      ";
          fprint_service_run oc ~base:lbase r;
          Printf.fprintf oc "%s\n"
            (if i = List.length lruns - 1 then "" else ","))
        lruns;
      Printf.fprintf oc "    ]\n  }\n}\n")

let run s =
  section "D-S1"
    "routing service: barrier-free ring dispatch vs the windowed oracle";
  let smoke = smoke s in
  let spec = ds1_spec ~ops:(if smoke then 3_000 else 240_000) in
  let ops = Wl.generate spec in
  let configs = Wl.shard_configs spec in
  let repeats = if smoke then 2 else 9 in
  let leaked = ref false in
  let unstable = ref [] in
  (* One timed run.  The ring capacity is 4096: deep enough that the
     sweep stream (per-shard depth between stats quiesces is bounded by
     stats_every) never rejects, small enough that per-run ring
     allocation does not dominate the minor heap.  "free-pinned" is
     the free-running dispatcher with [pin_loops]: it spawns the full
     jobs-1 loops even past the hardware, exercising the token/steal
     protocol (and reporting real steal counters) on any host; the
     clamped "free" rows are what production would do. *)
  let queue_bound = 4_096 in
  let run_once ~mode ~jobs ~repeats (spec : Wl.spec) ops configs =
    (* The free-vs-windowed differential below only holds when nothing
       rejects, and per-shard ring depth between stats quiesces is
       bounded by stats_every — so the bound must clear it, by
       construction rather than by luck. *)
    if spec.Wl.stats_every > 0 && spec.Wl.stats_every >= queue_bound then
      invalid_arg
        (Printf.sprintf
           "D-S1: stats_every (%d) must stay below queue_bound (%d) or the \
            differential can reject"
           spec.Wl.stats_every queue_bound);
    let r =
      replay
        { Svc.default_config with Svc.jobs; queue_bound;
          deterministic = mode = "windowed"; pin_loops = mode = "free-pinned" }
        configs ops
    in
    if r.leaked then leaked := true;
    {
      sr_jobs = jobs;
      sr_mode = mode;
      sr_seconds = r.seconds;
      sr_repeats = repeats;
      sr_throughput = float_of_int spec.Wl.ops /. Float.max 1e-9 r.seconds;
      sr_latency = r.snapshot.Metrics.latency;
      sr_totals = r.snapshot.Metrics.snapshot_totals;
      sr_rings = r.snapshot.Metrics.rings_totals;
      sr_fingerprint = r.fingerprint;
    }
  in
  (* Interleaved best-of-N: each repeat round runs every configuration
     once and we keep each configuration's best round.  Hammering one
     configuration N times in a row would let slow drift in VM and
     allocator state penalize whichever configuration runs last;
     interleaving spreads the drift across all of them.  Every
     round's fingerprint must match the configuration's first, or the
     configuration is flagged non-reproducible. *)
  let sweep plan spec ops configs =
    let plan = Array.of_list plan in
    let best = Array.map (fun _ -> None) plan in
    for _rep = 1 to repeats do
      Array.iteri
        (fun i (mode, jobs) ->
          let r = run_once ~mode ~jobs ~repeats spec ops configs in
          match best.(i) with
          | None -> best.(i) <- Some r
          | Some b ->
              if r.sr_fingerprint <> b.sr_fingerprint then
                unstable := Printf.sprintf "%s jobs=%d" mode jobs :: !unstable;
              if r.sr_seconds < b.sr_seconds then best.(i) <- Some r)
        plan
    done;
    Array.to_list best
    |> List.filter_map (fun b -> b)
  in
  let job_levels =
    List.sort_uniq compare (1 :: 2 :: 4 :: 8 :: [ P.recommended_jobs () ])
  in
  let plan =
    List.map (fun j -> ("free", j)) job_levels
    @ [ ("free-pinned", 4); ("windowed", 1); ("windowed", 4) ]
  in
  let runs = sweep plan spec ops configs in
  let mode_runs m = List.filter (fun r -> r.sr_mode = m) runs in
  let free_runs = mode_runs "free" in
  let pinned_runs = mode_runs "free-pinned" in
  let windowed_runs = mode_runs "windowed" in
  let base = List.find (fun r -> r.sr_jobs = 1) free_runs in
  T.print
    ~title:(Printf.sprintf "service over %s" (Wl.describe spec))
    (T.make
       ~headers:
         [ "mode"; "jobs"; "wall"; "ops/s"; "speedup"; "p50 ms"; "p99 ms";
           "max ring"; "stolen"; "rejected"; "validation failures" ]
       (List.map
          (fun r ->
            [
              r.sr_mode;
              string_of_int r.sr_jobs;
              Printf.sprintf "%.3f s" r.sr_seconds;
              Printf.sprintf "%.0f" r.sr_throughput;
              Printf.sprintf "%.2fx"
                (base.sr_seconds /. Float.max 1e-9 r.sr_seconds);
              Printf.sprintf "%.3f" (1000.0 *. r.sr_latency.Stats.p50);
              Printf.sprintf "%.3f" (1000.0 *. r.sr_latency.Stats.p99);
              string_of_int r.sr_rings.Metrics.max_depth;
              string_of_int r.sr_rings.Metrics.stolen;
              string_of_int r.sr_totals.Metrics.rejected;
              string_of_int r.sr_totals.Metrics.validation_failures;
            ])
          runs));
  let deterministic =
    List.for_all
      (fun r -> r.sr_fingerprint = base.sr_fingerprint)
      (free_runs @ pinned_runs)
  in
  let free_matches_oracle =
    List.for_all (fun r -> r.sr_fingerprint = base.sr_fingerprint) windowed_runs
  in
  Printf.printf "free-running responses + counters identical across %s: %b\n"
    (String.concat "/"
       (List.map
          (fun r ->
            Printf.sprintf "%sjobs=%d"
              (if r.sr_mode = "free-pinned" then "pinned " else "")
              r.sr_jobs)
          (free_runs @ pinned_runs)))
    deterministic;
  Printf.printf
    "free-running matches the windowed oracle (responses + counters): %b\n"
    free_matches_oracle;
  (match pinned_runs with
  | r :: _ ->
      Printf.printf "rings at pinned jobs=%d: %s\n" r.sr_jobs
        (Metrics.ring_line r.sr_rings)
  | [] -> ());
  (* Domain honesty: on a box with fewer domains than the largest jobs
     level, the sweep time-slices one core and "speedup" is overhead
     measurement, not scaling. *)
  let max_jobs = List.fold_left (fun a j -> max a j) 1 job_levels in
  if not (scaling_valid ~jobs:max_jobs) then
    Printf.printf
      "WARNING: host exposes %d domain(s) but the sweep benches up to jobs=%d;\n\
       multi-job runs are time-sliced and the speedup column measures dispatch\n\
       overhead, NOT shard-parallel scaling (scaling_valid: false in the JSON).\n"
      (Domain.recommended_domain_count ()) max_jobs;
  (* Overload: a tiny ring against a hot-shard workload must shed load
     as explicit rejections — and account for every one of them — in
     both dispatch modes.  The free-running rejection COUNT is a
     wall-clock fact (recorded, not asserted); the windowed one is
     deterministic. *)
  let overload_spec =
    { spec with Wl.shards = 4; ops = (if smoke then 1_000 else 5_000);
      skew = 3.0 }
  in
  let overload_ops = Wl.generate overload_spec in
  let overload ~mode ~jobs =
    let r =
      replay
        (* pin_loops: the free overload run needs a real consumer loop
           (with zero loops the dispatcher drains a full ring inline and
           nothing is ever rejected), even on a single-domain host. *)
        { Svc.default_config with Svc.jobs; queue_bound = 4; window = 128;
          deterministic = (mode = "windowed"); pin_loops = true }
        (Wl.shard_configs overload_spec) overload_ops
    in
    (r.snapshot.Metrics.snapshot_totals.Metrics.rejected, r.leaked)
  in
  let of_rej, of_leak = overload ~mode:"free" ~jobs:2 in
  let ow_rej, ow_leak = overload ~mode:"windowed" ~jobs:1 in
  Printf.printf
    "overload (4 hot shards, ring capacity 4): free jobs=2 %d/%d rejected \
     (leak %b), windowed %d/%d rejected (leak %b)\n"
    of_rej overload_spec.Wl.ops of_leak ow_rej overload_spec.Wl.ops ow_leak;
  (* Large topology: 64 shards x 1024 nodes.  One free-running run at
     jobs=1 always; the jobs=4 rerun is skipped (capped) when the base
     run alone ate half the time budget, so CI boxes stay within it. *)
  let large_cap = 120.0 in
  let lspec =
    {
      Wl.shards = 64;
      nodes = 1024;
      extra_edges = 256;
      seed = 1024;
      ops = (if smoke then 1_000 else 20_000);
      mix = { Wl.route = 900; churn = 98; crash = 2 };
      pmix = Wl.no_packets;
      burst = 4;
      skew = 1.2;
      stats_every = (if smoke then 500 else 4_000);
    }
  in
  let (lops, lconfigs), setup_seconds =
    P.timed (fun () -> (Wl.generate lspec, Wl.shard_configs lspec))
  in
  Printf.printf "large topology (%s): generated in %.1f s\n"
    (Wl.describe lspec) setup_seconds;
  let lrun1 = run_once ~mode:"free" ~jobs:1 ~repeats:1 lspec lops lconfigs in
  let lcapped = lrun1.sr_seconds > large_cap /. 2.0 in
  let lruns =
    if lcapped then [ lrun1 ]
    else
      [
        lrun1;
        run_once ~mode:"free-pinned" ~jobs:4 ~repeats:1 lspec lops lconfigs;
      ]
  in
  let large_deterministic =
    List.for_all (fun r -> r.sr_fingerprint = lrun1.sr_fingerprint) lruns
  in
  List.iter
    (fun r ->
      Printf.printf
        "large topology jobs=%d: %.2f s, %.0f ops/s, %d routes, rings %s\n"
        r.sr_jobs r.sr_seconds r.sr_throughput r.sr_totals.Metrics.routes
        (Metrics.ring_line r.sr_rings))
    lruns;
  if lcapped then
    Printf.printf
      "large topology jobs=4 rerun skipped: jobs=1 took %.1f s > %.0f s cap/2\n"
      lrun1.sr_seconds large_cap;
  write_results s ~max_jobs ~spec runs ~deterministic ~free_matches_oracle
    ~overload_free:(of_rej, of_leak) ~overload_windowed:(ow_rej, ow_leak)
    ~large:(lspec, lruns, lcapped, large_cap);
  let g = gate () in
  if List.exists
       (fun r -> r.sr_totals.Metrics.validation_failures > 0)
       (runs @ lruns)
  then fail g "route validation failures in service runs";
  if not deterministic then
    fail g "free-running responses differ across domain counts";
  if not free_matches_oracle then
    fail g "free-running dispatch diverges from the windowed oracle";
  if not large_deterministic then
    fail g "large-topology responses differ across domain counts";
  if !unstable <> [] then
    fail g "fingerprints changed across repeats of: %s"
      (String.concat ", " (List.sort_uniq compare !unstable));
  if !leaked || of_leak || ow_leak then
    fail g "rejected responses and rejected counters disagree";
  if of_rej = 0 || ow_rej = 0 then fail g "an overload scenario shed no load";
  finish g
