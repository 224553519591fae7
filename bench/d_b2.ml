(* D-B2: the packet forwarding layer end to end — throughput vs
   injection rate with the stability threshold, delivery under link
   churn, the geographic-void recovery contrast, and cross-jobs
   determinism of the packet counters through the service.  Exits 1 if
   the stability curve loses its shape (a below-threshold rate
   dropping under 99% delivery, or no diverging rate above), if
   recovery fails to out-deliver stranded greedy packets, or if the
   service fingerprint moves across jobs. *)

open Harness
module T = Lr_analysis.Table
module P = Lr_parallel.Pool
module Ps = Lr_packet.Scenario
module Geo = Lr_packet.Geo

let run s =
  section "D-B2" "packet forwarding: backpressure stability, void recovery";
  let smoke = smoke s in
  let g = gate () in
  (* -- rate sweep ---------------------------------------------------- *)
  let bp =
    if smoke then { Ps.default_bp with Ps.slots = 128; drain = 2_048 }
    else Ps.default_bp
  in
  let rates = if smoke then [ 1; 2; 4; 8; 64 ] else [ 1; 2; 4; 8; 12; 16; 24; 32; 64 ] in
  let results, sweep_seconds = P.timed (fun () -> Ps.sweep bp ~rates) in
  T.print
    ~title:
      (Printf.sprintf
         "throughput vs injection rate (%d nodes, %d planes, %d slots, qcap \
          %d)"
         bp.Ps.nodes bp.Ps.dests bp.Ps.slots bp.Ps.qcap)
    (T.make
       ~headers:
         [ "rate"; "offered"; "delivered"; "delivery"; "dropped";
           "queued@end"; "high water"; "reversals"; "stretch"; "diverged" ]
       (List.map
          (fun (r : Ps.bp_result) ->
            [
              string_of_int r.Ps.rate;
              string_of_int r.Ps.offered;
              string_of_int r.Ps.delivered;
              Printf.sprintf "%.4f" (Ps.delivery r);
              string_of_int r.Ps.dropped;
              string_of_int r.Ps.queued_end;
              string_of_int r.Ps.high_water;
              string_of_int r.Ps.reversals;
              Printf.sprintf "%.3f" (Ps.stretch r);
              string_of_bool r.Ps.diverged;
            ])
          results));
  let threshold = Ps.stability_threshold results in
  (match threshold with
  | Some r -> Printf.printf "stability threshold: rate %d (%.1f s sweep)\n" r sweep_seconds
  | None ->
      Printf.printf "stability threshold: none (%.1f s sweep)\n" sweep_seconds;
      fail g "no stable rate in the sweep");
  (match threshold with
  | None -> ()
  | Some thr ->
      List.iter
        (fun (r : Ps.bp_result) ->
          if r.Ps.rate <= thr && Float.compare (Ps.delivery r) 0.99 < 0 then
            fail g "rate %d is below the threshold yet delivered %.4f < 0.99"
              r.Ps.rate (Ps.delivery r))
        results;
      if
        not
          (List.exists
             (fun (r : Ps.bp_result) -> r.Ps.rate > thr && r.Ps.diverged)
             results)
      then
        fail g
          "no diverging rate above the threshold (%d) — the sweep never \
           crossed the stability boundary"
          thr);
  (* -- delivery under churn ------------------------------------------ *)
  let churn_rate = match threshold with Some t -> max 1 (t / 2) | None -> 1 in
  let churn_spec = { bp with Ps.rate = churn_rate; churn_every = 16 } in
  let churn_run, churn_seconds =
    P.timed (fun () -> Ps.run_backpressure churn_spec)
  in
  Printf.printf
    "churn (rate %d, toggle every %d slots): delivery %.4f, %d reversals, \
     %d dropped, diverged %b (%.1f s)\n"
    churn_rate churn_spec.Ps.churn_every (Ps.delivery churn_run)
    churn_run.Ps.reversals churn_run.Ps.dropped churn_run.Ps.diverged
    churn_seconds;
  if Float.compare (Ps.delivery churn_run) 0.99 < 0 then
    fail g "churn at rate %d delivered %.4f < 0.99" churn_rate
      (Ps.delivery churn_run);
  (* -- geographic void ----------------------------------------------- *)
  let void_res, void_seconds = P.timed (fun () -> Ps.run_void Ps.default_void) in
  let greedy = void_res.Ps.greedy and rcv = void_res.Ps.recovery in
  Printf.printf
    "void (%d greedy local minima): greedy %d/%d delivered, recovery %d/%d \
     (max level %d, stretch %.3f, %.1f s)\n"
    void_res.Ps.minima greedy.Geo.delivered greedy.Geo.injected rcv.Geo.delivered
    rcv.Geo.injected rcv.Geo.max_level (Geo.stretch rcv) void_seconds;
  if greedy.Geo.delivered >= greedy.Geo.injected then
    fail g "void: greedy delivered everything — the void is not a void";
  if rcv.Geo.delivered < rcv.Geo.injected then
    fail g "void: recovery stranded %d packets" rcv.Geo.remaining;
  (* -- cross-jobs determinism --------------------------------------- *)
  let spec =
    {
      Wl.shards = 8;
      nodes = 24;
      extra_edges = 16;
      seed = 42;
      ops = (if smoke then 2_000 else 40_000);
      mix = { Wl.route = 60; churn = 9; crash = 1 };
      pmix = { Wl.inject = 20; forward = 10 };
      burst = 4;
      skew = 0.8;
      stats_every = 500;
    }
  in
  let ops = Wl.generate spec in
  let configs = Wl.shard_configs spec in
  let run_cfg ~jobs =
    replay
      { Svc.default_config with Svc.jobs; queue_bound = Array.length ops + 1;
        pin_loops = true }
      configs ops
  in
  let r1 = run_cfg ~jobs:1 in
  let r4 = run_cfg ~jobs:4 in
  let fp1 = r1.fingerprint and fp4 = r4.fingerprint in
  let t = r1.snapshot.Metrics.snapshot_totals in
  Printf.printf
    "service packet stream (%s): packets_in %d, out %d, dropped %d, \
     reversals %d, queue peak %d\n"
    (Wl.describe spec) t.Metrics.packets_in t.Metrics.packets_out
    t.Metrics.packets_dropped t.Metrics.packet_reversals
    t.Metrics.packet_queue_peak;
  Printf.printf "fingerprints: jobs=1 %s (%.2f s), jobs=4 %s (%.2f s)\n" fp1
    r1.seconds fp4 r4.seconds;
  if fp1 <> fp4 then fail g "packet fingerprint differs across jobs (1 vs 4)";
  if t.Metrics.packets_in = 0 then
    fail g "the packet stream injected nothing — pmix wiring is broken";
  (* -- JSON ---------------------------------------------------------- *)
  (* The determinism section runs jobs=4, so on a host exposing fewer
     domains those runs time-slice one core and their wall-clock
     columns measure dispatch overhead, not parallel forwarding. *)
  write_json s ~experiment:"packet" ~jobs:4 (fun oc ->
      Printf.fprintf oc
        "  \"sweep\": {\n\
        \    \"nodes\": %d, \"dests\": %d, \"slots\": %d, \"qcap\": %d,\n\
        \    \"stability_threshold\": %s,\n    \"rates\": [\n"
        bp.Ps.nodes bp.Ps.dests bp.Ps.slots bp.Ps.qcap
        (match threshold with Some r -> string_of_int r | None -> "null");
      List.iteri
        (fun i (r : Ps.bp_result) ->
          Printf.fprintf oc
            "      {\"rate\": %d, \"offered\": %d, \"delivered\": %d, \
             \"delivery\": %.4f, \"dropped\": %d, \"queued_end\": %d, \
             \"high_water\": %d, \"reversals\": %d, \"stretch\": %.4f, \
             \"diverged\": %b}%s\n"
            r.Ps.rate r.Ps.offered r.Ps.delivered (Ps.delivery r) r.Ps.dropped
            r.Ps.queued_end r.Ps.high_water r.Ps.reversals (Ps.stretch r)
            r.Ps.diverged
            (if i = List.length results - 1 then "" else ","))
        results;
      Printf.fprintf oc
        "    ]\n  },\n\
        \  \"churn\": {\"rate\": %d, \"every\": %d, \"delivery\": %.4f, \
         \"reversals\": %d, \"dropped\": %d, \"diverged\": %b},\n"
        churn_rate churn_spec.Ps.churn_every (Ps.delivery churn_run)
        churn_run.Ps.reversals churn_run.Ps.dropped churn_run.Ps.diverged;
      Printf.fprintf oc
        "  \"void\": {\"minima\": %d, \"greedy_delivered\": %d, \
         \"recovery_delivered\": %d, \"injected\": %d, \"max_level\": %d, \
         \"recovery_stretch\": %.4f},\n"
        void_res.Ps.minima greedy.Geo.delivered rcv.Geo.delivered greedy.Geo.injected
        rcv.Geo.max_level (Geo.stretch rcv);
      Printf.fprintf oc
        "  \"service\": {\"ops\": %d, \"packets_in\": %d, \"packets_out\": \
         %d, \"packets_dropped\": %d, \"packet_reversals\": %d, \
         \"queue_peak\": %d, \"fingerprints_identical\": %b}\n}\n"
        spec.Wl.ops t.Metrics.packets_in t.Metrics.packets_out
        t.Metrics.packets_dropped t.Metrics.packet_reversals
        t.Metrics.packet_queue_peak (fp1 = fp4));
  finish g
