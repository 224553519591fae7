(* D-S2: the fast maintenance engine vs the persistent reference —
   repair storms, route-heavy workloads, and the D-S1 service workload
   re-run on the fast path.  Every comparison doubles as a differential
   test: work totals, final orientation fingerprints, routes and
   service fingerprints must be identical, or the run exits 1. *)

open Lr_graph
open Harness
module T = Lr_analysis.Table
module P = Lr_parallel.Pool
module M = Lr_routing.Maintenance
module FM = Lr_routing.Fast_maintenance
module Churn = Lr_routing.Churn

type storm_result = {
  st_id : string;
  st_n : int;
  st_events : int;
  st_ref_seconds : float;  (* tape replay, construction excluded *)
  st_fast_seconds : float;
  st_identical : bool;
}

(* One rung of the churn-storm ladder: an op tape replayed on the fast
   engine alone. *)
type rung = {
  lr_n : int;
  lr_events : int;
  lr_create_seconds : float;  (* engine construction *)
  lr_storm_seconds : float;  (* storm replay *)
  lr_consistent : bool;  (* [FM.consistent] after the storm *)
}

let write_results s storms ~ladder ~route_heavy ~svc_parity =
  let rh_n, rh_queries, rh_ref, rh_fast, rh_agree, (ch, cm, ci) = route_heavy in
  let sp_ops, sp_ref, sp_fast, sp_identical = svc_parity in
  write_json s ~experiment:"maintenance" ~jobs:1 (fun oc ->
      output_string oc "  \"storms\": [\n";
      List.iteri
        (fun i st ->
          Printf.fprintf oc
            "    {\"id\": %S, \"n\": %d, \"events\": %d, \
             \"ref_seconds\": %.4f, \"fast_seconds\": %.4f, \
             \"speedup\": %.2f, \"identical\": %b}%s\n"
            st.st_id st.st_n st.st_events st.st_ref_seconds st.st_fast_seconds
            (st.st_ref_seconds /. Float.max 1e-9 st.st_fast_seconds)
            st.st_identical
            (if i = List.length storms - 1 then "" else ","))
        storms;
      Printf.fprintf oc "  ],\n  \"ladder\": [\n";
      List.iteri
        (fun i r ->
          Printf.fprintf oc
            "    {\"n\": %d, \"events\": %d, \"create_seconds\": %.4f, \
             \"storm_seconds\": %.4f, \"events_per_s\": %.0f, \
             \"consistent\": %b}%s\n"
            r.lr_n r.lr_events r.lr_create_seconds r.lr_storm_seconds
            (float_of_int r.lr_events /. Float.max 1e-9 r.lr_storm_seconds)
            r.lr_consistent
            (if i = List.length ladder - 1 then "" else ","))
        ladder;
      Printf.fprintf oc "  ],\n";
      Printf.fprintf oc
        "  \"route_heavy\": {\"n\": %d, \"queries\": %d, \
         \"ref_seconds\": %.4f, \"fast_seconds\": %.4f, \"speedup\": %.2f, \
         \"routes_identical\": %b, \"cache\": {\"hits\": %d, \"misses\": %d, \
         \"invalidations\": %d}},\n"
        rh_n rh_queries rh_ref rh_fast
        (rh_ref /. Float.max 1e-9 rh_fast)
        rh_agree ch cm ci;
      Printf.fprintf oc
        "  \"service\": {\"ops\": %d, \"ref_seconds\": %.4f, \
         \"fast_seconds\": %.4f, \"speedup\": %.2f, \
         \"fingerprints_identical\": %b}\n}\n"
        sp_ops sp_ref sp_fast
        (sp_ref /. Float.max 1e-9 sp_fast)
        sp_identical)

let rule_name = function M.Partial_reversal -> "PR" | M.Full_reversal -> "FR"

(* A fresh fast engine replaying a tape; construction and the replay
   are timed apart. *)
let replay_fast rule config ops =
  let fm, create_seconds = P.timed (fun () -> FM.create rule config) in
  let (), seconds =
    P.timed (fun () -> Array.iter (fun op -> ignore (Churn.apply_fast fm op)) ops)
  in
  (fm, create_seconds, seconds)

(* One tape on both tiers: identical only when the total work, the
   final orientation and every route agree. *)
let differential ~id rule config ops =
  let fm, _, st_fast_seconds = replay_fast rule config ops in
  let m = M.create rule config in
  let (), st_ref_seconds =
    P.timed (fun () ->
        Array.iter (fun op -> ignore (Churn.apply_reference m op)) ops)
  in
  let n = FM.num_nodes fm in
  let routes_agree = ref true in
  for u = 0 to n - 1 do
    if M.route m u <> FM.route fm u then routes_agree := false
  done;
  {
    st_id = id;
    st_n = n;
    st_events = Array.length ops;
    st_ref_seconds;
    st_fast_seconds;
    st_identical =
      M.total_work m = FM.total_work fm
      && Digraph.fingerprint (M.graph m) = Digraph.fingerprint (FM.graph fm)
      && !routes_agree;
  }

(* The pair-toggle storm: a random pair toggles its link, every 41st
   event fails a node.  The tape is recorded on a scratch fast engine;
   every decision depends only on the current edge set, which both
   tiers maintain identically. *)
let gen_storm ~seed ~events rule config =
  let fm = FM.create rule config in
  let n = FM.num_nodes fm in
  let rng = rng (seed + 31) in
  let ops = ref [] in
  for k = 1 to events do
    let u = Random.State.int rng n and v = Random.State.int rng n in
    if u <> v then begin
      let op =
        if k mod 41 = 0 then Churn.Fail (if u = FM.destination fm then v else u)
        else if FM.mem_edge fm u v then Churn.Down (u, v)
        else Churn.Up (u, v)
      in
      ignore (Churn.apply_fast fm op);
      ops := op :: !ops
    end
  done;
  Array.of_list (List.rev !ops)

let run s =
  section "D-S2"
    "fast maintenance engine: repair storms, route cache, service parity";
  let smoke = smoke s in
  (* -- repair storms ------------------------------------------------ *)
  let storm ~seed rule n =
    let config = random_config ~seed n in
    let events = (if smoke then 3 else 6) * n in
    differential
      ~id:(Printf.sprintf "%s storm n=%d" (rule_name rule) n)
      rule config
      (gen_storm ~seed ~events rule config)
  in
  let storms =
    if smoke then [ storm ~seed:1 M.Partial_reversal 32; storm ~seed:2 M.Full_reversal 32 ]
    else
      [
        storm ~seed:1 M.Partial_reversal 64;
        storm ~seed:2 M.Full_reversal 64;
        storm ~seed:3 M.Partial_reversal 128;
        storm ~seed:4 M.Partial_reversal 256;
      ]
  in
  T.print
    ~title:"repair storms: persistent reference vs fast engine (same op tape)"
    (T.make
       ~headers:[ "storm"; "events"; "reference"; "fast"; "speedup"; "identical" ]
       (List.map
          (fun st ->
            [
              st.st_id;
              string_of_int st.st_events;
              Printf.sprintf "%.3f s" st.st_ref_seconds;
              Printf.sprintf "%.3f s" st.st_fast_seconds;
              Printf.sprintf "%.1fx"
                (st.st_ref_seconds /. Float.max 1e-9 st.st_fast_seconds);
              string_of_bool st.st_identical;
            ])
          storms));
  (* -- churn-storm ladder ------------------------------------------- *)
  (* Scale rungs for the fast engine, each checked by [FM.consistent]
     after its storm.  The tape is the churn model of
     {!Lr_routing.Churn} — unlike [gen_storm]'s pair toggles, whose
     removal probability vanishes at scale, half the events are real
     link-downs, so the membership paths (probes, attaches, partition
     reports) carry the cost.  The ladder runs at full rung
     sizes even under --trials smoke (fewer events, fewer rungs): CI
     is exactly where a scale regression would otherwise hide. *)
  let churn ~seed ~events n =
    let config = random_config ~seed n in
    (config, Churn.tape (rng (seed + 77)) ~events config)
  in
  let rung ~seed ~events n =
    let config, ops = churn ~seed ~events n in
    let fm, lr_create_seconds, lr_storm_seconds =
      replay_fast M.Partial_reversal config ops
    in
    {
      lr_n = n;
      lr_events = Array.length ops;
      lr_create_seconds;
      lr_storm_seconds;
      lr_consistent = FM.consistent fm;
    }
  in
  let ladder =
    if smoke then [ rung ~seed:11 ~events:2_000 1_000; rung ~seed:12 ~events:8_192 4_096 ]
    else
      [
        rung ~seed:11 ~events:6_000 1_000;
        rung ~seed:12 ~events:24_576 4_096;
        rung ~seed:13 ~events:30_000 10_000;
        rung ~seed:14 ~events:100_000 100_000;
      ]
  in
  T.print ~title:"churn-storm ladder: fast engine"
    (T.make
       ~headers:[ "n"; "events"; "create"; "storm"; "consistent" ]
       (List.map
          (fun r ->
            [
              string_of_int r.lr_n;
              string_of_int r.lr_events;
              Printf.sprintf "%.3f s" r.lr_create_seconds;
              Printf.sprintf "%.3f s" r.lr_storm_seconds;
              string_of_bool r.lr_consistent;
            ])
          ladder));
  (* -- reference-oracle leg at n=4096 -------------------------------- *)
  (* The persistent reference cannot replay a full-size rung, but a
     short removal-heavy tape at the same n keeps the oracle's
     byte-identity check alive at ladder scale, under both rules. *)
  let oracle_storms =
    if smoke then []
    else
      List.map
        (fun rule ->
          let config, ops = churn ~seed:21 ~events:384 4_096 in
          differential
            ~id:(Printf.sprintf "%s oracle n=4096" (rule_name rule))
            rule config ops)
        [ M.Partial_reversal; M.Full_reversal ]
  in
  let storms = storms @ oracle_storms in
  if oracle_storms <> [] then
    T.print
      ~title:"reference-oracle leg at ladder scale (short removal-heavy tape)"
      (T.make
         ~headers:[ "storm"; "events"; "reference"; "fast"; "identical" ]
         (List.map
            (fun st ->
              [
                st.st_id;
                string_of_int st.st_events;
                Printf.sprintf "%.3f s" st.st_ref_seconds;
                Printf.sprintf "%.3f s" st.st_fast_seconds;
                string_of_bool st.st_identical;
              ])
            oracle_storms));
  (* -- route-heavy workload ---------------------------------------- *)
  let rh_n = if smoke then 64 else 200 in
  let rh_queries = if smoke then 20_000 else 500_000 in
  let rh_config = random_config ~seed:9 rh_n in
  let m = M.create M.Partial_reversal rh_config in
  let fm = FM.create M.Partial_reversal rh_config in
  let rh_agree = ref true in
  for u = 0 to rh_n - 1 do
    if M.route m u <> FM.route fm u then rh_agree := false
  done;
  let (), rh_ref =
    P.timed (fun () ->
        for i = 0 to rh_queries - 1 do
          ignore (M.route m (i mod rh_n))
        done)
  in
  let (), rh_fast =
    P.timed (fun () ->
        for i = 0 to rh_queries - 1 do
          ignore (FM.route fm (i mod rh_n))
        done)
  in
  let cache = FM.cache_stats fm in
  Printf.printf
    "route-heavy (n=%d, %d queries, quiescent): reference %.3f s, fast %.3f s \
     (%.1fx); cache hits %d, misses %d, invalidations %d\n"
    rh_n rh_queries rh_ref rh_fast
    (rh_ref /. Float.max 1e-9 rh_fast)
    cache.FM.hits cache.FM.misses cache.FM.invalidations;
  (* -- the D-S1 service workload on both engines -------------------- *)
  let spec = ds1_spec ~ops:(if smoke then 3_000 else 60_000) in
  let ops = Wl.generate spec in
  let configs = Wl.shard_configs spec in
  let on engine = replay { Svc.default_config with Svc.engine } configs ops in
  let fast = on Lr_service.Shard.Fast in
  let refr = on Lr_service.Shard.Reference in
  let sp_fast = fast.seconds and sp_ref = refr.seconds in
  let sp_identical = String.equal fast.fingerprint refr.fingerprint in
  let failures (r : replay) =
    r.snapshot.Metrics.snapshot_totals.Metrics.validation_failures
  in
  Printf.printf
    "service parity (%s): reference %.3f s, fast %.3f s (%.1fx), fingerprints \
     %s\n"
    (Wl.describe spec) sp_ref sp_fast
    (sp_ref /. Float.max 1e-9 sp_fast)
    (if sp_identical then "identical" else "DIFFER");
  write_results s storms ~ladder
    ~route_heavy:
      ( rh_n, rh_queries, rh_ref, rh_fast, !rh_agree,
        (cache.FM.hits, cache.FM.misses, cache.FM.invalidations) )
    ~svc_parity:(spec.Wl.ops, sp_ref, sp_fast, sp_identical);
  let g = gate () in
  if List.exists (fun st -> not st.st_identical) storms then
    fail g "fast and reference engines diverged under a repair storm";
  if List.exists (fun r -> not r.lr_consistent) ladder then
    fail g "fast engine inconsistent after a ladder storm";
  if not !rh_agree then
    fail g "fast and reference routes differ on the route-heavy instance";
  if not sp_identical then fail g "service fingerprints differ across engines";
  if failures fast > 0 || failures refr > 0 then
    fail g "route validation failures (fast %d, reference %d)" (failures fast)
      (failures refr);
  finish g
