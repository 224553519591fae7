open Helpers
module C = Lr_chaos.Chaos
module Fault = Lr_chaos.Fault
module Schedule = Lr_chaos.Schedule
module M = Lr_routing.Maintenance
module S = Lr_service.Service
module W = Lr_service.Workload
module Op = Lr_service.Op
module Shard = Lr_service.Shard
module Audit = Lr_trace.Audit

let check_string = Alcotest.(check string)

(* {1 Spec parsing} *)

let test_spec_of_string () =
  (match Schedule.spec_of_string "8" with
  | Ok s ->
      check_int "count" 8 s.Schedule.count;
      check_int "default seed" Schedule.default_seed s.Schedule.seed;
      check_int "default magnitude" Schedule.default_magnitude
        s.Schedule.magnitude
  | Error e -> Alcotest.failf "count-only spec rejected: %s" e);
  (match Schedule.spec_of_string "8:7" with
  | Ok s ->
      check_int "count" 8 s.Schedule.count;
      check_int "seed" 7 s.Schedule.seed
  | Error e -> Alcotest.failf "count:seed spec rejected: %s" e);
  (match Schedule.spec_of_string "8:7:1024" with
  | Ok s ->
      check_int "magnitude" 1024 s.Schedule.magnitude;
      check_string "round-trips" "8:7:1024" (Schedule.spec_to_string s)
  | Error e -> Alcotest.failf "full spec rejected: %s" e);
  List.iter
    (fun bad ->
      match Schedule.spec_of_string bad with
      | Ok _ -> Alcotest.failf "bad spec %S accepted" bad
      | Error _ -> ())
    [ ""; "x"; "-1"; "8:-2"; "8:7:0"; "8:7:-5"; "8:7:1024:9"; "4:1:1000000000";
      "8:7:536870912" ];
  (match Schedule.spec_of_string "8:7:536870911" with
  | Ok s -> check_int "largest magnitude" Shard.max_magnitude s.Schedule.magnitude
  | Error e -> Alcotest.failf "largest magnitude rejected: %s" e)

(* {1 Schedule generation} *)

let test_schedule_deterministic () =
  let spec = { Schedule.count = 12; seed = 7; magnitude = 256 } in
  let a = Schedule.generate spec ~shards:4 ~nodes:16 in
  let b = Schedule.generate spec ~shards:4 ~nodes:16 in
  check_bool "same spec, same schedule" true
    (Schedule.entries a = Schedule.entries b);
  let c =
    Schedule.generate { spec with Schedule.seed = 8 } ~shards:4 ~nodes:16
  in
  check_bool "different seed, different schedule" false
    (Schedule.entries a = Schedule.entries c);
  check_bool "at least one entry per scheduled fault" true
    (List.length (Schedule.entries a) >= spec.Schedule.count);
  let sorted = ref true and in_range = ref true in
  let last = ref neg_infinity in
  List.iter
    (fun (e : Schedule.entry) ->
      if e.Schedule.at < !last then sorted := false;
      last := e.Schedule.at;
      if e.Schedule.at < 0.0 || e.Schedule.at >= 1.0 then in_range := false;
      let s = Fault.shard_of e.Schedule.fault in
      if s < 0 || s >= 4 then in_range := false)
    (Schedule.entries a);
  check_bool "entries ascending by time" true !sorted;
  check_bool "times in [0,1), shards in range" true !in_range

(* {1 Partition cuts} *)

let test_cut_partition_heal_symmetry () =
  let g = (Linkrev.Config.of_instance (Lr_graph.Generators.ring 12)).Linkrev.Config.initial in
  let cut = Fault.cut g ~seed:5 in
  check_bool "cut is deterministic" true (cut = Fault.cut g ~seed:5);
  check_bool "ring cut is non-empty" true (cut <> []);
  let graphs = [| g |] in
  let downs = Fault.compile ~graphs (Fault.Partition { shard = 0; seed = 5 }) in
  let ups =
    Fault.compile ~graphs (Fault.Heal_partition { shard = 0; seed = 5 })
  in
  check_int "one op per cut edge (down)" (List.length cut) (List.length downs);
  check_int "one op per cut edge (up)" (List.length cut) (List.length ups);
  List.iter2
    (fun (u, v) op ->
      match op with
      | Op.Link_down { shard = 0; u = u'; v = v' } ->
          check_int "down u" u u';
          check_int "down v" v v'
      | _ -> Alcotest.fail "partition compiled to a non-Link_down op")
    cut downs;
  List.iter2
    (fun (u, v) op ->
      match op with
      | Op.Link_up { shard = 0; u = u'; v = v' } ->
          check_int "up u" u u';
          check_int "up v" v v'
      | _ -> Alcotest.fail "heal compiled to a non-Link_up op")
    cut ups

(* {1 Weave} *)

let test_weave_deterministic () =
  let wspec =
    { W.shards = 4; nodes = 12; extra_edges = 8; seed = 5; ops = 200;
      mix = W.default_mix; pmix = W.no_packets; burst = 4; skew = 0.8;
      stats_every = 0 }
  in
  let base = W.generate wspec in
  let graphs =
    Array.map
      (fun (c : Linkrev.Config.t) -> c.Linkrev.Config.initial)
      (W.shard_configs wspec)
  in
  let sched =
    Schedule.generate
      { Schedule.count = 6; seed = 9; magnitude = 128 }
      ~shards:wspec.W.shards ~nodes:wspec.W.nodes
  in
  let w1 = Schedule.weave sched ~graphs base in
  let w2 = Schedule.weave sched ~graphs base in
  check_bool "weave is deterministic" true (w1 = w2);
  check_bool "weave only adds ops" true (Array.length w1 > Array.length base);
  (* The woven stream is the base stream plus the compiled fault ops,
     order aside. *)
  let count op arr =
    Array.fold_left (fun k o -> if o = op then k + 1 else k) 0 arr
  in
  Array.iter
    (fun op ->
      check_bool "base op survives the weave" true (count op w1 >= count op base))
    base

(* {1 Service determinism under chaos} *)

(* The tentpole guarantee at the service level: a chaos-woven op
   stream is ordinary ops, so responses and fingerprint stay
   byte-identical across job counts and engine tiers, and every
   response is the sequential reference's. *)
(* The serving path does not re-check a heal, so this does: a dense
   chaos-woven stream (CI's dense differential spec, cut to 5,000 base
   ops) replayed op by op through [Shard.apply] on both tiers, with the
   engine's full consistency check after every heal. *)
let test_heals_stay_consistent () =
  let wspec =
    { W.shards = 2; nodes = 48; extra_edges = 16; seed = 1; ops = 5_000;
      mix = { W.route = 40; churn = 60; crash = 0 };
      pmix = { W.inject = 10; forward = 10 }; burst = 4; skew = 0.8;
      stats_every = 0 }
  in
  let configs = W.shard_configs wspec in
  let graphs =
    Array.map (fun (c : Linkrev.Config.t) -> c.Linkrev.Config.initial) configs
  in
  let sched =
    Schedule.generate
      { Schedule.count = 60; seed = 1; magnitude = 16 }
      ~shards:wspec.W.shards ~nodes:wspec.W.nodes
  in
  let ops = Schedule.weave sched ~graphs (W.generate wspec) in
  List.iter
    (fun engine ->
      let shards =
        Array.mapi
          (fun id config -> Shard.create ~engine ~rule:M.Partial_reversal ~id config)
          configs
      in
      let heals = ref 0 in
      Array.iter
        (fun op ->
          match Op.shard_of op with
          | None -> ()
          | Some s -> (
              let shard = shards.(s) in
              match (Shard.apply shard op).Shard.response with
              | Op.Healed _ ->
                  incr heals;
                  check_bool "consistent after the heal" true
                    (Shard.consistent shard)
              | _ -> ()))
        ops;
      check_bool "the stream heals" true (!heals > 0))
    [ Shard.Fast; Shard.Reference ]

let test_service_fingerprint_under_chaos () =
  let wspec =
    { W.shards = 4; nodes = 12; extra_edges = 8; seed = 5; ops = 300;
      mix = W.default_mix; pmix = W.default_pmix; burst = 4; skew = 0.8;
      stats_every = 0 }
  in
  let graphs =
    Array.map
      (fun (c : Linkrev.Config.t) -> c.Linkrev.Config.initial)
      (W.shard_configs wspec)
  in
  let sched =
    Schedule.generate
      { Schedule.count = 6; seed = 9; magnitude = 128 }
      ~shards:wspec.W.shards ~nodes:wspec.W.nodes
  in
  let ops = Schedule.weave sched ~graphs (W.generate wspec) in
  let run ~jobs ~engine =
    let cfg =
      { S.default_config with S.jobs; queue_bound = Array.length ops + 1;
        engine; pin_loops = true }
    in
    let svc = S.create cfg (W.shard_configs wspec) in
    Fun.protect
      ~finally:(fun () -> S.shutdown svc)
      (fun () ->
        let responses = S.run svc ops in
        let m = S.metrics svc in
        (responses, S.fingerprint responses m, m))
  in
  let r1, fp1, m1 = run ~jobs:1 ~engine:Shard.Fast in
  let r4, fp4, _ = run ~jobs:4 ~engine:Shard.Fast in
  let rr, fpr, _ = run ~jobs:1 ~engine:Shard.Reference in
  check_matches_sequential "jobs=1 vs the sequential reference"
    (sequential (W.shard_configs wspec) ops)
    r1;
  check_bool "responses jobs=4 = jobs=1" true (r1 = r4);
  check_bool "responses reference = fast" true (r1 = rr);
  check_string "fingerprint jobs=4" fp1 fp4;
  check_string "fingerprint reference engine" fp1 fpr;
  check_bool "the schedule actually injected faults" true
    (m1.Lr_service.Metrics.snapshot_totals.Lr_service.Metrics.faults > 0)

(* {1 Recovery differentials} *)

(* Pinned step counts: any change to reversal semantics, hostile
   heights, or adoption order shows up here as an exact-count
   mismatch, not a vague slowdown. *)
let test_differential_pinned_counts () =
  match C.scenarios ~n:48 ~seed:1 () with
  | chain :: _ring :: _grid :: tree :: _ ->
      let dc =
        C.differential M.Partial_reversal chain.C.config ~seed:chain.C.seed
          ~magnitude:chain.C.magnitude
      in
      check_int "chain steps" 489 dc.C.fast.C.steps;
      check_int "chain rounds" 29 dc.C.fast.C.rounds;
      check_bool "chain agrees" true dc.C.agree;
      check_bool "chain converged" true dc.C.fast.C.destination_oriented;
      check_bool "chain within budget" true dc.C.fast.C.within_budget;
      let dt =
        C.differential M.Partial_reversal tree.C.config ~seed:tree.C.seed
          ~magnitude:tree.C.magnitude
      in
      check_int "tree steps" 253 dt.C.fast.C.steps;
      check_int "tree rounds" 5 dt.C.fast.C.rounds;
      check_bool "tree agrees" true dt.C.agree
  | _ -> Alcotest.fail "scenario battery lost its shape"

let test_adoption_budget () =
  check_int "classic bound at zero spread" ((4 * 10 * 10) + 1000)
    (M.adoption_budget ~n:10 ~spread:0);
  check_bool "monotone in spread" true
    (M.adoption_budget ~n:10 ~spread:100 > M.adoption_budget ~n:10 ~spread:1);
  (* The linear-in-spread term is what lets wide corruptions
     (magnitude >> n) stabilize without tripping the engine's
     budget-exceeded assertion. *)
  check_int "linear spread term" ((4 * 8 * (8 + 1000)) + 1000)
    (M.adoption_budget ~n:8 ~spread:1000);
  (* Flipping a high bit leaves spreads near 2^61, where 4n(n+spread)
     wraps negative (n=24 at spread 2^56, n=1024 at 2^50): the budget
     must saturate instead. *)
  let spreads = [ 0; 1; 1000; 1 lsl 50; 1 lsl 56; 1 lsl 61; max_int ] in
  List.iter
    (fun n ->
      let budgets = List.map (fun spread -> M.adoption_budget ~n ~spread) spreads in
      List.iteri
        (fun i b ->
          check_bool (Printf.sprintf "n=%d: budget %d positive" n i) true (b > 0);
          if i > 0 then
            check_bool
              (Printf.sprintf "n=%d: budget %d monotone" n i)
              true
              (b >= List.nth budgets (i - 1)))
        budgets)
    [ 0; 1; 24; 1024; 65536 ];
  check_int "saturates" max_int (M.adoption_budget ~n:24 ~spread:(1 lsl 56));
  check_int "spread of nothing" 0 (M.height_spread Seq.empty);
  check_int "spread sums both coordinates" 10
    (M.height_spread (List.to_seq [ (3, -1); (-2, 4) ]));
  (* A bit-61 flip on nodes of both signs spans more than [max_int]. *)
  check_int "spread saturates" max_int
    (M.height_spread (List.to_seq [ ((1 lsl 61) + 3, 0); (-(1 lsl 61) - 5, 0) ]))

(* Flips of bits 50-61 on several nodes of one 24-node shard, served on
   both tiers: the heals are short, so each must run rather than trip
   a budget that wrapped negative, and the tiers must answer alike. *)
let test_high_bit_flips_serve () =
  let wspec =
    { W.shards = 2; nodes = 24; extra_edges = 8; seed = 3; ops = 40;
      mix = W.default_mix; pmix = W.default_pmix; burst = 4; skew = 0.8;
      stats_every = 0 }
  in
  let flips =
    Array.init 36 (fun i ->
        Op.Flip { shard = 0; node = [| 5; 11; 17 |].(i mod 3); bit = 50 + (i / 3) })
  in
  let routes = Array.init 24 (fun src -> Op.Route { shard = 0; src }) in
  let ops = Array.concat [ W.generate wspec; flips; routes ] in
  let run engine =
    let cfg =
      { S.default_config with S.queue_bound = Array.length ops + 1; engine }
    in
    let svc = S.create cfg (W.shard_configs wspec) in
    Fun.protect
      ~finally:(fun () -> S.shutdown svc)
      (fun () ->
        let responses = S.run svc ops in
        let m = S.metrics svc in
        (responses, S.fingerprint responses m, m))
  in
  let rf, fpf, mf = run Shard.Fast in
  let rr, fpr, mr = run Shard.Reference in
  let totals m = m.Lr_service.Metrics.snapshot_totals in
  check_int "fast validation failures" 0 (totals mf).Lr_service.Metrics.validation_failures;
  check_int "reference validation failures" 0
    (totals mr).Lr_service.Metrics.validation_failures;
  check_bool "responses reference = fast" true (rf = rr);
  check_string "fingerprint reference engine" fpf fpr;
  check_int "every flip healed" 36 (totals mf).Lr_service.Metrics.faults

let test_trace_roundtrip_with_perturbs () =
  match C.scenarios ~n:24 ~seed:1 () with
  | _chain :: ring :: _ ->
      let trace = Filename.temp_file "test_chaos_" ".lrt" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists trace then Sys.remove trace)
        (fun () ->
          let d =
            C.differential ~trace M.Partial_reversal ring.C.config
              ~seed:ring.C.seed ~magnitude:ring.C.magnitude
          in
          match Audit.run ~stride:1 trace with
          | Error e -> Alcotest.failf "audit failed to replay: %s" e
          | Ok r ->
              check_bool "audit clean on every state" true (Audit.clean r);
              check_bool "summary matches replay" true r.Audit.summary_ok;
              check_int "replayed steps = measured steps" d.C.fast.C.steps
                r.Audit.steps;
              check_bool "perturb events recorded" true (r.Audit.perturbs > 0);
              (* edge_reversals totals the perturbation's own flips
                 plus the recovery's, so it dominates the blast
                 radius. *)
              check_bool "edge reversals cover the perturbed edges" true
                (r.Audit.edge_reversals >= d.C.fast.C.perturbed_edges))
  | _ -> Alcotest.fail "scenario battery lost its shape"

let test_differential_flip () =
  let config = bad_chain 8 in
  let d = C.differential_flip M.Partial_reversal config ~node:4 ~bit:3 in
  check_bool "seu converged" true d.C.fast.C.destination_oriented;
  check_bool "seu agrees" true d.C.agree;
  check_bool "seu within budget" true d.C.fast.C.within_budget;
  check_bool "flipping a height does some work" true (d.C.fast.C.steps > 0);
  Alcotest.check_raises "bit out of range"
    (Invalid_argument "Chaos.differential_flip: bad bit") (fun () ->
      ignore (C.differential_flip M.Partial_reversal config ~node:0 ~bit:62));
  Alcotest.check_raises "node out of range"
    (Invalid_argument "Chaos.differential_flip: node out of range") (fun () ->
      ignore (C.differential_flip M.Partial_reversal config ~node:99 ~bit:3))

(* {1 The battery check}

   The one judge behind D-C1 and [linkrev chaos]. *)

let test_battery_check_clean () =
  List.iter
    (fun rule ->
      match C.battery ~audit:true rule ~n:12 ~seed:1 with
      | Error e -> Alcotest.failf "battery refused n=12: %s" e
      | Ok checked ->
          check_int "one result per scenario" 6 (List.length checked);
          List.iter
            (fun (c : C.checked) ->
              let name = c.C.scenario.C.name in
              check_int (name ^ ": no failures") 0 (List.length c.C.failures);
              check_bool (name ^ ": audited") true (c.C.audited <> None);
              check_bool (name ^ ": audit cell") true
                (String.starts_with ~prefix:"clean/" (C.audit_cell c)))
            checked)
    [ M.Partial_reversal; M.Full_reversal ]

let test_battery_refuses_small () =
  List.iter
    (fun n ->
      match C.battery ~audit:true M.Partial_reversal ~n ~seed:1 with
      | Ok _ -> Alcotest.failf "battery accepted n=%d" n
      | Error _ -> ())
    [ 0; 1; 2 ]

let test_judge_reports_failures () =
  let d =
    C.differential M.Partial_reversal (bad_chain 8) ~seed:1 ~magnitude:4
  in
  check_int "a clean recovery passes" 0 (List.length (C.judge d));
  let broken =
    { d with C.agree = false; fast = { d.C.fast with C.within_budget = false } }
  in
  check_bool "divergence and budget overrun are reported" true
    (C.judge broken = [ C.Diverged; C.Over_budget ])

let () =
  Alcotest.run "chaos"
    [
      suite "chaos"
        [
          case "spec_of_string" test_spec_of_string;
          case "schedule determinism" test_schedule_deterministic;
          case "partition cut / heal symmetry" test_cut_partition_heal_symmetry;
          case "weave determinism" test_weave_deterministic;
          case "heals stay consistent on both tiers" test_heals_stay_consistent;
          case "service fingerprint under chaos"
            test_service_fingerprint_under_chaos;
          case "pinned recovery step counts" test_differential_pinned_counts;
          case "adoption budget" test_adoption_budget;
          case "high-bit flips serve on both tiers" test_high_bit_flips_serve;
          case "trace roundtrip with perturbs"
            test_trace_roundtrip_with_perturbs;
          case "single-event upset" test_differential_flip;
          case "battery check clean at n=12" test_battery_check_clean;
          case "battery refuses n < 3" test_battery_refuses_small;
          case "judge reports failures" test_judge_reports_failures;
        ];
    ]
