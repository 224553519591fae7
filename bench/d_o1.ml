(* D-O1: trace recording overhead, replay, and differential replay. *)

open Lr_graph
open Linkrev
open Harness
module T = Lr_analysis.Table
module P = Lr_parallel.Pool

type trace_workload = {
  tw_id : string;
  tw_work : int;
  tw_events : int;
  tw_bytes : int;
  tw_bare_seconds : float;
  tw_record_seconds : float;
  tw_overhead : float;
  tw_replay_ok : bool;
  tw_replay_error : string;
}

let write_results s workloads ~diff_trials ~diff_passed =
  write_json s ~experiment:"trace" ~jobs:1 (fun oc ->
      output_string oc "  \"workloads\": [\n";
      List.iteri
        (fun i w ->
          Printf.fprintf oc
            "    {\"id\": %S, \"work\": %d, \"events\": %d, \"bytes\": %d, \
             \"bare_seconds\": %.4f, \"record_seconds\": %.4f, \
             \"overhead\": %.3f, \"replay_ok\": %b}%s\n"
            w.tw_id w.tw_work w.tw_events w.tw_bytes w.tw_bare_seconds
            w.tw_record_seconds w.tw_overhead w.tw_replay_ok
            (if i = List.length workloads - 1 then "" else ","))
        workloads;
      Printf.fprintf oc
        "  ],\n\
        \  \"max_overhead\": %.3f,\n\
        \  \"differential_replay\": {\"trials\": %d, \"passed\": %d}\n\
         }\n"
        (List.fold_left (fun a w -> Float.max a w.tw_overhead) 0.0 workloads)
        diff_trials diff_passed)

let run s =
  section "D-O1" "trace recording overhead, replay, and cross-engine differential replay";
  let module F = Lr_fast.Fast_engine in
  let module FN = Lr_fast.Fast_new_pr in
  let module Record = Lr_trace.Record in
  let module Replay = Lr_trace.Replay in
  let module Writer = Lr_trace.Writer in
  let smoke = smoke s in
  let with_tmp f =
    let path = Filename.temp_file "lr_trace_bench" ".lrt" in
    Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () -> f path)
  in
  (* 1. recording overhead on the D-F9 large workloads: run each engine
     bare, then with a recording sink, and replay the trace.  [bare] and
     [record] are setup functions returning the thunk to time, so engine
     construction and header serialization (identical one-time costs on
     both sides) stay outside the measurement — the ratio isolates the
     marginal cost of recording a run.  Each side is timed best-of-3:
     the minimum is the noise-robust estimator here, since disk
     writeback stalls inflate individual recorded runs by several
     hundred percent. *)
  let repeats = if smoke then 1 else 3 in
  let best_of setup =
    let best_r = ref None and best_s = ref infinity in
    for _ = 1 to repeats do
      let thunk = setup () in
      let r, s = P.timed thunk in
      if s < !best_s then begin
        best_r := Some r;
        best_s := s
      end
    done;
    (Option.get !best_r, !best_s)
  in
  let workload tw_id ~bare ~record =
    with_tmp (fun path ->
        let bare_work, tw_bare_seconds = best_of bare in
        let (work, stats), tw_record_seconds =
          best_of (fun () -> record path)
        in
        assert (work = bare_work);
        let tw_replay_ok, tw_replay_error =
          match Replay.file path with
          | Ok r ->
              (r.Replay.steps + r.Replay.dummies = work, "")
          | Error e -> (false, e)
        in
        {
          tw_id;
          tw_work = work;
          tw_events = stats.Writer.events;
          tw_bytes = stats.Writer.bytes;
          tw_bare_seconds;
          tw_record_seconds;
          tw_overhead =
            tw_record_seconds /. Float.max 1e-9 tw_bare_seconds;
          tw_replay_ok;
          tw_replay_error;
        })
  in
  let saw = Generators.sawtooth (if smoke then 400 else 6_000) in
  let chain = Generators.bad_chain (if smoke then 400 else 4_000) in
  let rand =
    let n = if smoke then 5_000 else 100_000 in
    Generators.random_connected_dag (rng 3) ~n ~extra_edges:(n / 2)
  in
  let module Event = Lr_trace.Event in
  let fast_workload id rule inst =
    let config = Config.of_instance inst in
    let tag = match rule with F.Partial -> Event.Pr | F.Full -> Event.Fr in
    workload id
      ~bare:(fun () ->
        let engine = F.of_config config in
        fun () -> (F.run rule engine).F.work)
      ~record:(fun path ->
        let engine = F.of_config config in
        let writer = Writer.create path (Event.header_of_config tag config) in
        let s, flush = Record.sink writer in
        F.set_sink engine (Some s);
        fun () ->
          let out, dt = P.timed (fun () -> F.run rule engine) in
          F.set_sink engine None;
          flush ();
          let stats =
            Writer.close writer
              {
                Event.work = out.F.work;
                edge_reversals = out.F.edge_reversals;
                wall_ns = int_of_float (dt *. 1e9);
                final_fingerprint = F.fingerprint engine;
              }
          in
          (out.F.work, stats))
  in
  let newpr_workload id inst =
    let config = Config.of_instance inst in
    workload id
      ~bare:(fun () ->
        let engine = FN.of_config config in
        fun () -> (FN.run engine).FN.work)
      ~record:(fun path ->
        let engine = FN.of_config config in
        let writer =
          Writer.create path (Event.header_of_config Event.New_pr config)
        in
        let s, flush = Record.sink writer in
        FN.set_sink engine (Some s);
        fun () ->
          let out, dt = P.timed (fun () -> FN.run engine) in
          FN.set_sink engine None;
          flush ();
          let stats =
            Writer.close writer
              {
                Event.work = out.FN.work;
                edge_reversals = out.FN.edge_reversals;
                wall_ns = int_of_float (dt *. 1e9);
                final_fingerprint = FN.fingerprint engine;
              }
          in
          (out.FN.work, stats))
  in
  let workloads =
    [
      fast_workload "PR sawtooth" F.Partial saw;
      fast_workload "FR bad chain" F.Full chain;
      newpr_workload "NewPR sawtooth" saw;
      fast_workload "PR random DAG" F.Partial rand;
    ]
  in
  T.print ~title:"recording overhead (bare engine vs engine + trace sink)"
    (T.make
       ~headers:
         [ "workload"; "work"; "events"; "bytes"; "bare"; "recorded";
           "overhead"; "replay" ]
       (List.map
          (fun w ->
            [
              w.tw_id;
              string_of_int w.tw_work;
              string_of_int w.tw_events;
              string_of_int w.tw_bytes;
              Printf.sprintf "%.3f s" w.tw_bare_seconds;
              Printf.sprintf "%.3f s" w.tw_record_seconds;
              Printf.sprintf "%.2fx" w.tw_overhead;
              (if w.tw_replay_ok then "OK" else "FAIL: " ^ w.tw_replay_error);
            ])
          workloads));
  (* 2. cross-engine differential replay on the D-T1 random-DAG sweep:
     traces recorded on the flat engines must replay clean on the
     persistent reference automata — same preconditions, same final
     orientation, same work totals. *)
  let diff_cases =
    let all =
      List.concat_map
        (fun n ->
          List.concat_map
            (fun seed ->
              List.map (fun engine -> (n, seed, engine)) [ `Pr; `Fr; `New_pr ])
            [ 0; 1; 2 ])
        D_t.t1_sizes
    in
    if smoke then List.filteri (fun i _ -> i < s.trials) all else all
  in
  let diff_passed = ref 0 in
  let diff_failures = ref [] in
  List.iter
    (fun (n, seed, engine) ->
      with_tmp (fun path ->
          let config = random_config ~seed:(seed + (1000 * n)) n in
          let label =
            Printf.sprintf "%s n=%d seed=%d"
              (match engine with `Pr -> "pr" | `Fr -> "fr" | `New_pr -> "newpr")
              n seed
          in
          (match engine with
          | `Pr -> ignore (Record.fast ~seed ~path ~rule:F.Partial config)
          | `Fr -> ignore (Record.fast ~seed ~path ~rule:F.Full config)
          | `New_pr -> ignore (Record.fast_new_pr ~seed ~path config));
          match Replay.file path with
          | Error e -> diff_failures := (label, "fast: " ^ e) :: !diff_failures
          | Ok _ -> (
              match Replay.against_automaton path with
              | Error e ->
                  diff_failures := (label, "automaton: " ^ e) :: !diff_failures
              | Ok _ -> incr diff_passed)))
    diff_cases;
  Printf.printf
    "\ndifferential replay (fast engine traces on the persistent automata):\n\
     %d/%d passed\n"
    !diff_passed (List.length diff_cases);
  List.iter
    (fun (label, e) -> Printf.printf "  FAILED %s: %s\n" label e)
    (List.rev !diff_failures);
  write_results s workloads ~diff_trials:(List.length diff_cases)
    ~diff_passed:!diff_passed;
  let max_overhead =
    List.fold_left (fun a w -> Float.max a w.tw_overhead) 0.0 workloads
  in
  Printf.printf
    "max recording overhead: %.2fx  (target: <= 2x on the large workloads)\n"
    max_overhead;
  (* correctness failures are fatal; overhead is reported, not enforced
     (CI machines have noisy clocks) *)
  let g = gate () in
  if List.exists (fun w -> not w.tw_replay_ok) workloads
     || !diff_passed < List.length diff_cases
  then fail g "replay divergence";
  finish g
