(* The serving benchmark.  See benchmark/README.md.

     run.exe --workload W --seed S --seconds T --trace 0|1
         [--trace-out SPANS.jsonl] [--out RESULTS.json]
     run.exe [--seconds T] [--out RESULTS.json]   every workload, then pin
     run.exe --smoke [--benchmark BENCHMARK.json]
     run.exe pin
     run.exe compare BASE.json NEW.json [--benchmark BENCHMARK.json] *)

module Svc = Lr_service.Service
module Metrics = Lr_service.Metrics
module Stats = Lr_analysis.Stats
module Wl = Lr_service.Workload

let progress fmt = Printf.eprintf (fmt ^^ "\n%!")
let metric name unit_ samples = { Report.name; unit_; samples }
let one name unit_ x = metric name unit_ [ x ]
let count name k = one name "count" (float_of_int k)
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Every repeat must validate every route, account for every rejection
   and print the same fingerprint, pinned at the default seed. *)
let check_timed (w : Workloads.t) ~seed ~full (t : Timed.t) =
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun e -> errors := e :: !errors) fmt in
  let first = List.hd t.repeats in
  List.iteri
    (fun i (r : Timed.repeat) ->
      let totals = r.snapshot.Metrics.snapshot_totals in
      if totals.Metrics.validation_failures > 0 then
        fail "repeat %d: %d validation failures" i totals.Metrics.validation_failures;
      if r.rejected_in <> totals.Metrics.rejected then
        fail "repeat %d: %d rejected responses but %d in the metrics" i r.rejected_in
          totals.Metrics.rejected;
      if r.fingerprint <> first.fingerprint then
        fail "repeat %d: fingerprint %s differs from %s" i r.fingerprint first.fingerprint)
    t.repeats;
  if full && seed = w.default_seed && w.pin <> first.fingerprint then
    fail "fingerprint %s, pinned %s" first.fingerprint w.pin;
  List.rev !errors

let check_traced (t : Timed.t) (tr : Traced.t) =
  let steps =
    (List.hd t.repeats).snapshot.Metrics.snapshot_totals.Metrics.reversal_steps
  in
  List.map (fun d -> "twin disagrees: " ^ d) tr.disagreements
  @
  if tr.counts.work <> steps then
    [ Printf.sprintf "twin reversal steps %d, service %d" tr.counts.work steps ]
  else []

let per_layer (inputs : Workloads.inputs) (t : Timed.t) (tr : Traced.t) ~record_s =
  let s = Traced.summarize inputs tr in
  let total name = Option.value (Hashtbl.find_opt s.total name) ~default:0.0 in
  let snap = (List.hd t.repeats).snapshot in
  let totals = snap.Metrics.snapshot_totals in
  let rings = snap.Metrics.rings_totals in
  let wall = Report.median (List.map (fun (r : Timed.repeat) -> r.wall_s) t.repeats) in
  let bare = List.init (min 3 (List.length t.repeats)) (fun _ -> Timed.bare inputs) in
  let dispatch = wall -. Report.median bare in
  let shard k =
    let d = Option.value (Hashtbl.find_opt s.durations k) ~default:[] in
    let p q = 1e6 *. Stats.percentile q d in
    [
      one ("shard." ^ k ^ ".total_s") "s" (total ("shard." ^ k));
      one ("shard." ^ k ^ ".self_s") "s"
        (Option.value (Hashtbl.find_opt s.self k) ~default:0.0);
      one ("shard." ^ k ^ ".p50_us") "us" (p 50.0);
      one ("shard." ^ k ^ ".p99_us") "us" (p 99.0);
    ]
  in
  let c = tr.counts in
  let each f = List.map f t.repeats in
  [
    one "service.dispatch_s" "s" dispatch;
    one "service.dispatch_share" "ratio" (dispatch /. wall);
    count "ring.max_depth" rings.Metrics.max_depth;
    one "ring.mean_depth" "ops" rings.Metrics.mean_depth;
  ]
  @ List.concat_map shard Traced.kinds
  @ [
      one "engine.route_s" "s" (total "engine.route");
      one "engine.fail_link_s" "s" (total "engine.fail_link");
      one "engine.add_link_s" "s" (total "engine.add_link");
      one "engine.adopt_s" "s" (total "engine.adopt");
      one "engine.create_s" "s" tr.create_s;
      count "engine.reversal_steps" c.work;
      one "engine.cache_hit_ratio" "ratio"
        (ratio tr.cache.hits (tr.cache.hits + tr.cache.misses));
      count "engine.cache_invalidations" tr.cache.invalidations;
      count "engine.uf_slots" tr.index.slots;
      count "engine.uf_rebuilds" tr.index.rebuilds;
      one "failover.graph_s" "s" (total "failover.graph");
      one "failover.config_s" "s" (total "failover.config");
      one "failover.elect_s" "s" (total "failover.elect");
      one "failover.rebuild_s" "s" (total "failover.rebuild");
      count "failover.steps" c.failover_steps;
      count "plane.packets_in" totals.Metrics.packets_in;
      count "plane.dropped" totals.Metrics.packets_dropped;
      count "plane.delivered" totals.Metrics.packets_out;
      one "plane.delivery_ratio" "ratio"
        (ratio totals.Metrics.packets_out totals.Metrics.packets_in);
      count "plane.hops" totals.Metrics.packet_hops;
      count "plane.reversals" totals.Metrics.packet_reversals;
      count "plane.queue_peak" totals.Metrics.packet_queue_peak;
      count "heal.steps" c.heal_steps;
      metric "heal.p50_ms" "ms" (each (fun r -> 1e3 *. r.snapshot.Metrics.recovery.Stats.p50));
      metric "heal.p95_ms" "ms" (each (fun r -> 1e3 *. r.snapshot.Metrics.recovery.Stats.p95));
      one "twin.agree_ratio" "ratio" (ratio c.agreed c.twinned);
      one "workload.generate_s" "s" inputs.generate_s;
      one "workload.configs_s" "s" inputs.configs_s;
      one "trace.record_s" "s" record_s;
      one "trace.overhead_x" "x" (tr.wall_s /. wall);
    ]

(* Measure one workload: timed repeats, then (when [trace]) the traced
   replay. *)
let measure ?(scale = 1.0) ?min_repeats ?trace_out ~seconds ~trace (w : Workloads.t) ~seed =
  let inputs = Workloads.inputs ~scale w ~seed in
  progress "%s: seed %d, %d ops over %d shards x %d nodes" w.name seed
    (Array.length inputs.ops) inputs.spec.Wl.shards inputs.spec.Wl.nodes;
  let t = Timed.run ?min_repeats ~seconds inputs in
  let n = Array.length inputs.ops in
  let errors = check_timed w ~seed ~full:(scale = 1.0) t in
  let end_to_end =
    List.map (fun (name, unit_, xs) -> metric name unit_ xs) (Timed.samples n t)
  in
  let per_layer, errors =
    if not trace then ([], errors)
    else begin
      let record_s = Traced.record_s inputs in
      let tr = Traced.replay inputs in
      Option.iter (fun path -> Traced.write_spans path tr) trace_out;
      (per_layer inputs t tr ~record_s, errors @ check_traced t tr)
    end
  in
  let failed =
    List.fold_left
      (fun acc (r : Timed.repeat) ->
        let tt = r.snapshot.Metrics.snapshot_totals in
        acc + tt.Metrics.rejected + tt.Metrics.validation_failures)
      0 t.repeats
  in
  List.iter (fun e -> progress "%s: FAILED %s" w.name e) errors;
  {
    Report.workload = w.name;
    seed;
    repeats = List.length t.repeats;
    correct = errors = [];
    attempted = n * List.length t.repeats;
    failed;
    fingerprint = (List.hd t.repeats).fingerprint;
    end_to_end;
    per_layer;
  }

(* D-S1 [large_topology] exactly as [bench/main.exe service] runs it:
   its 20k-op stream must reproduce the fingerprint in
   BENCH_service.json.  About half a minute, almost all of it in the
   ~55 destination crashes. *)
let pin () =
  let spec =
    {
      Wl.shards = 64;
      nodes = 1024;
      extra_edges = 256;
      seed = 1024;
      ops = 20_000;
      mix = { Wl.route = 900; churn = 98; crash = 2 };
      pmix = Wl.no_packets;
      burst = 4;
      skew = 1.2;
      stats_every = 4_000;
    }
  in
  let want = "dadd2db703f9b6bb859df679f46ba4bf" in
  let svc = Svc.create Timed.config (Wl.shard_configs spec) in
  let got, seconds =
    Fun.protect
      ~finally:(fun () -> Svc.shutdown svc)
      (fun () ->
        Workloads.timed (fun () ->
            let responses = Svc.run svc (Wl.generate spec) in
            Svc.fingerprint responses (Svc.metrics svc)))
  in
  Printf.printf "D-S1 large_topology: fingerprint %s (%s), %.1f s\n%!" got
    (if got = want then "pinned" else "MISMATCH, pinned " ^ want)
    seconds;
  got = want

(* The smoke check: each workload's two result lines, rendered exactly as
   a single-workload run prints them, must parse and carry exactly the
   metric names and units BENCHMARK.json declares, and BENCHMARK.json
   must declare exactly the workloads the benchmark runs. *)
let check_lines ~benchmark (rs : Report.workload_result list) =
  let module Json = Lr_lint.Json in
  let unit_of m = match Json.member "unit" m with Some (Json.Str u) -> u | _ -> "" in
  let declared key doc =
    List.filter_map
      (fun m ->
        match Json.member "name" m with Some (Json.Str n) -> Some (n, unit_of m) | _ -> None)
      (Option.value (Option.bind (Json.member key doc) Json.to_list) ~default:[])
  in
  let printed line =
    match Json.parse line with
    | Error e -> Error e
    | Ok v -> (
        match Json.member "metrics" v with
        | Some (Json.Obj fields) -> Ok (List.map (fun (n, m) -> (n, unit_of m)) fields)
        | _ -> Error "no metrics object")
  in
  let show l = String.concat " " (List.map (fun (n, u) -> n ^ "[" ^ u ^ "]") l) in
  let check what want line =
    match printed line with
    | Error e -> [ what ^ ": the result line does not parse: " ^ e ]
    | Ok got ->
        let minus a b = List.filter (fun x -> not (List.mem x b)) a in
        if minus got want = [] && minus want got = [] then []
        else
          [ Printf.sprintf "%s differs from %s: printed only %s; declared only %s" what
              benchmark (show (minus got want)) (show (minus want got)) ]
  in
  match Compare.load benchmark with
  | Error e -> [ e ]
  | Ok doc ->
      let names = List.sort compare (List.map (fun (w : Workloads.t) -> w.name) Workloads.all) in
      (if List.sort compare (List.map fst (declared "workloads" doc)) = names then []
       else [ benchmark ^ " declares other workloads than " ^ String.concat ", " names ])
      @ List.concat_map
          (fun (r : Report.workload_result) ->
            let line = Report.result_line ~correct:r.correct ~attempted:r.attempted ~failed:r.failed in
            check (r.workload ^ " end_to_end") (declared "end_to_end" doc) (line r.end_to_end)
            @ check (r.workload ^ " per_layer") (declared "per_layer" doc) (line r.per_layer)
            @ if r.correct then [] else [ r.workload ^ " failed its correctness gate" ])
          rs

let usage () =
  prerr_endline
    "usage: run.exe [--workload W --seed S] [--seconds T] [--trace 0|1] [--trace-out F] \
     [--out F]\n\
    \       run.exe --smoke [--benchmark BENCHMARK.json]\n\
    \       run.exe pin\n\
    \       run.exe compare BASE.json NEW.json [--benchmark BENCHMARK.json]";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref 20.0 in
  let trace = ref true and trace_out = ref None and out = ref None in
  let smoke = ref false and benchmark = ref "BENCHMARK.json" and anon = ref [] in
  let spec =
    [
      ("--workload", Arg.String (fun s -> workload := Some s), "W  one workload");
      ("--seed", Arg.Int (fun s -> seed := Some s), "S  input seed (>= 0)");
      ("--seconds", Arg.Float (( := ) seconds), "T  timed seconds per workload");
      ("--trace", Arg.Int (fun k -> trace := k <> 0), "0|1  per-layer (1) or end-to-end (0)");
      ("--trace-out", Arg.String (fun p -> trace_out := Some p), "F  write spans as JSONL");
      ("--out", Arg.String (fun p -> out := Some p), "F  write the results document");
      ("--smoke", Arg.Set smoke, " every workload at 1% of its ops, traced");
      ("--benchmark", Arg.Set_string benchmark, "F  BENCHMARK.json to check against");
    ]
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> anon := a :: !anon) "run.exe"
   with Arg.Bad msg | Arg.Help msg ->
     prerr_string msg;
     exit 2);
  match List.rev !anon with
  | [ "compare"; base; fresh ] -> (
      match Compare.run ~benchmark:!benchmark base fresh with
      | Ok true -> ()
      | Ok false -> exit 1
      | Error e ->
          prerr_endline e;
          exit 2)
  | [ "pin" ] -> if not (pin ()) then exit 1
  | _ :: _ -> usage ()
  | [] when !smoke ->
      let rs =
        List.map
          (fun (w : Workloads.t) ->
            measure ~scale:0.01 ~min_repeats:1 ~seconds:0.0 ~trace:true w ~seed:w.default_seed)
          Workloads.all
      in
      List.iter
        (fun (r : Report.workload_result) ->
          Printf.printf "%s: %d end-to-end and %d per-layer metrics, correct %b\n" r.workload
            (List.length r.end_to_end) (List.length r.per_layer) r.correct)
        rs;
      let errors = check_lines ~benchmark:!benchmark rs in
      List.iter prerr_endline errors;
      if errors <> [] then exit 1
  | [] -> (
      if Option.fold ~none:false ~some:(fun s -> s < 0) !seed || !seconds < 0.0 then usage ();
      match !workload with
      | Some name ->
          let w =
            match Workloads.find name with
            | Some w -> w
            | None ->
                prerr_endline ("unknown workload " ^ name);
                exit 2
          in
          let seed = Option.value !seed ~default:w.default_seed in
          let r =
            measure ?trace_out:!trace_out ~seconds:!seconds ~trace:!trace w ~seed
          in
          Option.iter (fun p -> Report.write_results p [ r ]) !out;
          print_endline
            (Report.result_line ~correct:r.correct ~attempted:r.attempted ~failed:r.failed
               (if !trace then r.per_layer else r.end_to_end));
          if not r.correct then exit 1
      | None ->
          let rs =
            List.map
              (fun (w : Workloads.t) ->
                let r =
                  measure ~seconds:!seconds ~trace:!trace w
                    ~seed:(Option.value !seed ~default:w.default_seed)
                in
                List.iter
                  (fun (m : Report.metric) ->
                    Printf.printf "%-15s %-18s %.6g %s\n%!" w.name m.name
                      (Report.median m.samples) m.unit_)
                  r.end_to_end;
                r)
              Workloads.all
          in
          Option.iter (fun p -> Report.write_results p rs) !out;
          let pinned = pin () in
          if not (pinned && List.for_all (fun (r : Report.workload_result) -> r.correct) rs)
          then exit 1)
