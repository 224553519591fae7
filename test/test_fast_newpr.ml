open Lr_graph
open Linkrev
open Helpers
module F = Lr_fast.Fast_engine

(* NewPR's work is schedule independent (the same Gafni-Bertsekas
   argument the suite verifies in D-F6), so the flat-array engine under
   its [New_pr] rule — whatever its queue order — must match the
   persistent automaton run under any scheduler: same totals, same
   per-node counts, same final orientation. *)
let reference config =
  Executor.run
    ~scheduler:(Lr_automata.Scheduler.first ())
    ~destination:config.Config.destination (New_pr.algo config)

let differential config =
  let slow = reference config in
  let engine = F.of_config F.New_pr config in
  let fast = F.run engine in
  check_int "same total work" slow.Executor.total_node_steps fast.F.work;
  check_int "same edge reversals" slow.Executor.edge_reversals
    fast.F.edge_reversals;
  check_bool "same orientation flag" slow.Executor.destination_oriented
    fast.F.destination_oriented;
  check_bool "quiescent" true fast.F.quiescent;
  Node.Set.iter
    (fun u ->
      check_int
        (Printf.sprintf "steps of node %d" u)
        (Node.Map.find_or ~default:0 u slow.Executor.node_steps)
        fast.F.steps_per_node.(u))
    (Config.nodes config);
  Alcotest.check digraph_testable "same final graph" slow.Executor.final_graph
    (F.to_digraph engine)

let test_differential_random () =
  for seed = 0 to 14 do
    differential (random_config ~seed 20)
  done

let test_differential_families () =
  List.iter differential
    [
      diamond ();
      bad_chain 12;
      sawtooth 12;
      Config.of_instance (Generators.grid ~rows:3 ~cols:4);
      (* source centre: every leaf step begins with a reversal, the
         centre's first step is real, initial sinks go dummy-first *)
      Config.of_instance (Generators.star ~center:0 ~leaves:6 ~inward:false);
      Config.of_instance (Generators.binary_tree ~depth:3);
    ]

(* Lockstep acyclicity: drive the engine one step at a time and check
   Theorem 4.3's claim on every observed state. *)
let test_stepwise_acyclic () =
  List.iter
    (fun config ->
      let engine = F.of_config F.New_pr config in
      let quiescent = ref false in
      let steps = ref 0 in
      while not !quiescent do
        let out = F.run ~max_steps:1 engine in
        check_bool "acyclic at every observed state" true
          (Digraph.is_acyclic (F.to_digraph engine));
        quiescent := out.F.quiescent;
        incr steps;
        if !steps > 100_000 then Alcotest.fail "engine does not terminate"
      done)
    [ sawtooth 10; bad_chain 10; random_config ~seed:3 12 ]

(* NewPR pays for its static reversal sets with dummy steps, never less
   work than OneStepPR (paper 4.1). *)
let test_dummy_overhead_nonnegative () =
  List.iter
    (fun config ->
      let np = (F.run (F.of_config F.New_pr config)).F.work in
      let pr =
        (Executor.run
           ~scheduler:(Lr_automata.Scheduler.first ())
           ~destination:config.Config.destination (One_step_pr.algo config))
          .Executor.total_node_steps
      in
      check_bool "NewPR work >= OneStepPR work" true (np >= pr))
    [
      sawtooth 16;
      bad_chain 16;
      Config.of_instance (Generators.star ~center:0 ~leaves:8 ~inward:false);
      random_config ~seed:7 20;
    ]

let test_max_steps_resume () =
  let engine = F.of_config F.New_pr (bad_chain 30) in
  let partial = F.run ~max_steps:7 engine in
  check_bool "not quiescent" false partial.F.quiescent;
  check_int "seven steps" 7 partial.F.work;
  let rest = F.run engine in
  check_bool "resumed to quiescence" true rest.F.quiescent;
  let full = (F.run (F.of_config F.New_pr (bad_chain 30))).F.work in
  check_int "paused run does the same total work" full rest.F.work

let test_counters_match_steps () =
  let config = sawtooth 12 in
  let engine = F.of_config F.New_pr config in
  let out = F.run engine in
  Node.Set.iter
    (fun u -> check_int "count = steps taken" out.F.steps_per_node.(u)
        (F.count engine u))
    (Config.nodes config)

let test_rejects_sparse_ids () =
  let g = Digraph.of_directed_edges [ (0, 5) ] in
  check_bool "raises" true
    (try
       ignore (F.create F.New_pr { Generators.graph = g; destination = 0 });
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "fast_newpr"
    [
      suite "differential"
        [
          case "matches persistent NewPR on random DAGs"
            test_differential_random;
          case "matches persistent NewPR on named families"
            test_differential_families;
          case "acyclic at every observed state" test_stepwise_acyclic;
          case "dummy overhead is non-negative" test_dummy_overhead_nonnegative;
        ];
      suite "engine"
        [
          case "max_steps pause and resume" test_max_steps_resume;
          case "per-node counters equal steps taken" test_counters_match_steps;
          case "sparse node ids rejected" test_rejects_sparse_ids;
        ];
    ]
