(* What every experiment shares: the run settings, seeding, the failure
   gate, one service replay, the D-S1 workload, and the header of every
   BENCH_*.json. *)

module Wl = Lr_service.Workload
module Svc = Lr_service.Service
module Metrics = Lr_service.Metrics
module Json = Lr_lint.Json

type settings = {
  jobs : int;  (* domains for the trial loops; results are identical for every value *)
  trials : int;  (* > 0 truncates the trial loops for a CI smoke run; 0 = full scale *)
}

let smoke s = s.trials > 0

let section id title =
  Printf.printf "\n################ %s — %s ################\n\n" id title

let rng seed = Random.State.make [| 0xbe; seed |]

let random_config ~seed n =
  Linkrev.Config.of_instance
    (Lr_graph.Generators.random_connected_dag (rng seed) ~n ~extra_edges:(n / 2))

(* The failure gate: checks record FAILURE lines as they go, and
   [finish] prints them and exits 1 if there are any. *)
type gate = { mutable failures : string list }

let gate () = { failures = [] }
let fail g fmt = Printf.ksprintf (fun m -> g.failures <- m :: g.failures) fmt

let finish g =
  match List.rev g.failures with
  | [] -> ()
  | fs ->
      List.iter (Printf.printf "FAILURE: %s\n") fs;
      exit 1

(* One service replay: create, run (timed), read the metrics, shut
   down. *)
type replay = {
  fingerprint : string;
  snapshot : Metrics.snapshot;
  seconds : float;  (* wall time of [Service.run] *)
  leaked : bool;  (* rejected responses and the rejected counter disagree *)
}

let replay cfg configs ops =
  let svc = Svc.create cfg configs in
  Fun.protect
    ~finally:(fun () -> Svc.shutdown svc)
    (fun () ->
      let responses, seconds = Lr_parallel.Pool.timed (fun () -> Svc.run svc ops) in
      let snapshot = Svc.metrics svc in
      {
        fingerprint = Svc.fingerprint responses snapshot;
        snapshot;
        seconds;
        leaked =
          Svc.rejected_in responses
          <> snapshot.Metrics.snapshot_totals.Metrics.rejected;
      })

(* The D-S1 workload, 16 shards x 24 nodes: default-mix proportions,
   but crashes at 0.2% — a 1% crash rate over 60k ops kills ~37
   destinations per 24-node shard, leaving mostly honest No_routes, and
   real fleets crash destinations far less often than they query. *)
let ds1_spec ~ops =
  {
    Wl.shards = 16;
    nodes = 24;
    extra_edges = 16;
    seed = 42;
    ops;
    mix = { Wl.route = 900; churn = 98; crash = 2 };
    pmix = Wl.no_packets;
    burst = 4;
    skew = 0.8;
    stats_every = 1_000;
  }

(* Multi-job timings measure scaling only when there are jobs to scale
   over and the host has a domain for each; otherwise they measure
   time-slicing. *)
let scaling_valid ~jobs = jobs > 1 && Domain.recommended_domain_count () >= jobs

(* The first fields of every BENCH_<experiment>.json.  [jobs] is the
   largest jobs level the experiment ran; [trials] stays 0 for a full
   run, so a smoke file cannot pass for a committed one. *)
let header s ~experiment ~jobs =
  [
    ("schema", Json.Str "linkrev-bench/1");
    ("generated_by", Json.Str ("bench/main.exe " ^ experiment));
    ("ocaml_version", Json.Str Sys.ocaml_version);
    ("available_domains", Json.Int (Domain.recommended_domain_count ()));
    ("jobs", Json.Int jobs);
    ("scaling_valid", Json.Bool (scaling_valid ~jobs));
    ("trials", Json.Int s.trials);
  ]

let file_of experiment = "BENCH_" ^ experiment ^ ".json"

(* A hand-formatted BENCH file: the header, then [body], which writes
   the remaining fields and the closing brace. *)
let write_json s ~experiment ~jobs body =
  let file = file_of experiment in
  Out_channel.with_open_text file (fun oc ->
      output_string oc "{\n";
      List.iter
        (fun (k, v) ->
          Printf.fprintf oc "  %S: %s,\n" k (String.trim (Json.to_string v)))
        (header s ~experiment ~jobs);
      body oc);
  Printf.printf "wrote %s\n" file
