(* D-T1..D-T5: the paper's theorems, invariants and simulation
   relations, checked at scale and exhaustively on small instances. *)

open Lr_graph
open Linkrev
open Harness
module A = Lr_automata
module T = Lr_analysis.Table
module P = Lr_parallel.Pool

(* D-T1: acyclicity (Theorems 4.3 / 5.5) over many random executions. *)

let t1_automata_states config seed =
  [
    ( "PR",
      List.map
        (fun (s : Pr.state) -> s.Pr.graph)
        (A.Execution.states
           (A.Execution.run
              ~scheduler:(A.Scheduler.random (rng seed))
              (Pr.automaton ~mode:Pr.Singletons_and_max config))) );
    ( "OneStepPR",
      List.map
        (fun (s : Pr.state) -> s.Pr.graph)
        (A.Execution.states
           (A.Execution.run
              ~scheduler:(A.Scheduler.random (rng (seed + 1)))
              (One_step_pr.automaton config))) );
    ( "NewPR",
      List.map
        (fun (s : New_pr.state) -> s.New_pr.graph)
        (A.Execution.states
           (A.Execution.run
              ~scheduler:(A.Scheduler.random (rng (seed + 2)))
              (New_pr.automaton config))) );
    ( "FR",
      List.map
        (fun (s : Full_reversal.state) -> s.Full_reversal.graph)
        (A.Execution.states
           (A.Execution.run
              ~scheduler:(A.Scheduler.random (rng (seed + 3)))
              (Full_reversal.automaton config))) );
  ]

let t1_sizes = [ 10; 25; 50; 100; 200 ]

let t1_trials =
  Array.of_list
    (List.concat_map
       (fun n -> List.init 10 (fun seed -> (n, seed)))
       t1_sizes)

(* One self-contained trial: everything (instance, schedulers) is
   derived from the trial's (n, seed), so the pool can run trials in
   any interleaving without changing a single count. *)
let t1_trial (n, seed) =
  let config = random_config ~seed:(seed + (1000 * n)) n in
  List.map
    (fun (name, graphs) ->
      let cyclic =
        List.fold_left
          (fun acc g -> if Digraph.is_acyclic g then acc else acc + 1)
          0 graphs
      in
      (name, List.length graphs, cyclic))
    (t1_automata_states config seed)

let t1_active_trials s =
  if smoke s then Array.sub t1_trials 0 (min s.trials (Array.length t1_trials))
  else t1_trials

let t1 s =
  section "D-T1" "acyclicity in every observed state (Thm 4.3 / 5.5)";
  let active = t1_active_trials s in
  let per_trial =
    (* lr:owner trial: each acyclicity trial owns its generator, executor
       and certificate state; only the result array slot is shared. *)
    P.map_range ~jobs:s.jobs (Array.length active) (fun i -> t1_trial active.(i))
  in
  let totals = Hashtbl.create 8 in
  let violations = ref 0 in
  Array.iter
    (List.iter (fun (name, states, cyclic) ->
         let k = Hashtbl.find_opt totals name |> Option.value ~default:0 in
         Hashtbl.replace totals name (k + states);
         violations := !violations + cyclic))
    per_trial;
  let rows =
    [ "PR"; "OneStepPR"; "NewPR"; "FR" ]
    |> List.map (fun name ->
           [ name; string_of_int (Hashtbl.find totals name); "0" ])
  in
  T.print
    ~title:"states checked for acyclicity (random DAGs, n in 10..200, 10 seeds each)"
    (T.make ~headers:[ "automaton"; "states checked"; "cyclic states" ] rows);
  Printf.printf "total violations: %d  (paper: must be 0)\n" !violations

(* D-T2: the list/parity invariants along executions. *)

let t2 _ =
  section "D-T2" "Invariants 3.1/3.2 (+Cor 3.3/3.4) and 4.1/4.2 along executions";
  let pr_states = ref 0 and np_states = ref 0 and bad = ref 0 in
  let sizes = [ 10; 25; 50; 100 ] in
  List.iter
    (fun n ->
      for seed = 0 to 9 do
        let config = random_config ~seed:(seed + (77 * n)) n in
        let exec_pr =
          A.Execution.run
            ~scheduler:(A.Scheduler.random (rng seed))
            (Pr.automaton ~mode:Pr.Singletons_and_max config)
        in
        pr_states := !pr_states + A.Execution.length exec_pr + 1;
        (match
           A.Invariant.check_execution (Invariants.pr_all config) exec_pr
         with
        | None -> ()
        | Some v ->
            incr bad;
            Format.printf "PR violation: %a@." A.Invariant.pp_violation v);
        let exec_np =
          A.Execution.run
            ~scheduler:(A.Scheduler.random (rng (seed + 1)))
            (New_pr.automaton config)
        in
        np_states := !np_states + A.Execution.length exec_np + 1;
        match
          A.Invariant.check_execution (Invariants.newpr_all config) exec_np
        with
        | None -> ()
        | Some v ->
            incr bad;
            Format.printf "NewPR violation: %a@." A.Invariant.pp_violation v
      done)
    sizes;
  T.print
    ~title:"invariant checks (random DAGs, n in 10..100, 10 seeds each)"
    (T.make
       ~headers:[ "invariant set"; "states checked"; "violations" ]
       [
         [ "3.1, 3.2, 3.3, 3.4, acyclic (PR)"; string_of_int !pr_states; "0" ];
         [ "4.1, 4.2, acyclic (NewPR)"; string_of_int !np_states; "0" ];
       ]);
  Printf.printf "total violations: %d  (paper: must be 0)\n" !bad

(* D-T3: simulation relations along executions. *)

let t3 _ =
  section "D-T3" "simulation relations R', R, composition, and the reverse direction";
  let results = ref [] in
  let try_rel name check =
    let ok = ref 0 and fail = ref 0 in
    for seed = 0 to 19 do
      let config = random_config ~seed:(seed * 13) (10 + (seed mod 4 * 10)) in
      match check config seed with
      | Ok _ -> incr ok
      | Error e ->
          incr fail;
          Printf.printf "%s FAILED (seed %d): %s\n" name seed e
    done;
    results := (name, !ok, !fail) :: !results
  in
  try_rel "R' (PR -> OneStepPR)" (fun config seed ->
      let exec =
        A.Execution.run
          ~scheduler:(A.Scheduler.random (rng seed))
          (Pr.automaton ~mode:Pr.Singletons_and_max config)
      in
      A.Simulation.check_guided
        ~b:(One_step_pr.automaton config)
        (Simulation_rel.r_prime config) exec);
  try_rel "R (OneStepPR -> NewPR)" (fun config seed ->
      let exec =
        A.Execution.run
          ~scheduler:(A.Scheduler.random (rng seed))
          (One_step_pr.automaton config)
      in
      A.Simulation.check_guided ~b:(New_pr.automaton config)
        (Simulation_rel.r config) exec);
  try_rel "R' o R (PR -> NewPR)" (fun config seed ->
      Simulation_rel.check_r_composed
        ~scheduler:(A.Scheduler.random (rng seed))
        config);
  try_rel "reverse (NewPR -> OneStepPR)" (fun config seed ->
      Simulation_rel.check_r_reverse
        ~scheduler:(A.Scheduler.random (rng seed))
        config);
  T.print ~title:"guided simulation checks (20 random instances each)"
    (T.make
       ~headers:[ "relation"; "passed"; "failed" ]
       (List.rev_map
          (fun (name, ok, fail) ->
            [ name; string_of_int ok; string_of_int fail ])
          !results));
  Printf.printf "(paper: all must pass; the reverse direction is §6 future work)\n"

(* D-T4: exhaustive model check on all small instances. *)

let t4 _ =
  section "D-T4" "exhaustive model check (every reachable state, every small instance)";
  let fams = Lr_modelcheck.Modelcheck.exhaustive_families ~max_nodes:4 in
  let per_kind = Hashtbl.create 8 in
  let violations = ref 0 in
  List.iter
    (fun config ->
      List.iter
        (fun (r : Lr_modelcheck.Modelcheck.report) ->
          let states, count =
            Hashtbl.find_opt per_kind r.automaton |> Option.value ~default:(0, 0)
          in
          Hashtbl.replace per_kind r.automaton (states + r.states, count + 1);
          if r.violation <> None then incr violations)
        (Lr_modelcheck.Modelcheck.check_all config))
    fams;
  let rows =
    Hashtbl.fold
      (fun name (states, count) acc ->
        [ name; string_of_int count; string_of_int states ] :: acc)
      per_kind []
    |> List.sort compare
  in
  T.print
    ~title:
      (Printf.sprintf
         "exhaustive checks over all %d connected DAG instances with <= 4 nodes"
         (List.length fams))
    (T.make ~headers:[ "check"; "instances"; "reachable states (total)" ] rows);
  Printf.printf "violations: %d  (paper: must be 0)\n" !violations

(* D-T5: exact state-space measurements and termination proofs. *)

let t5 _ =
  section "D-T5"
    "exact termination: state graphs are acyclic, longest executions measured";
  let instances =
    [
      ("bad chain n=4", Config.of_instance (Generators.bad_chain 4));
      ("bad chain n=5", Config.of_instance (Generators.bad_chain 5));
      ("bad chain n=6", Config.of_instance (Generators.bad_chain 6));
      ("sawtooth n=4", Config.of_instance (Generators.sawtooth 4));
      ("sawtooth n=6", Config.of_instance (Generators.sawtooth 6));
      ("diamond+tail",
        Config.make_exn
          (Digraph.of_directed_edges [ (0, 1); (0, 2); (1, 3); (2, 3); (3, 4) ])
          ~destination:0);
      ("grid 2x3", Config.of_instance (Generators.grid ~rows:2 ~cols:3));
    ]
  in
  let rows =
    List.map
      (fun (name, config) ->
        let term = Lr_modelcheck.Modelcheck.check_termination config in
        match Lr_modelcheck.Modelcheck.state_space_stats config with
        | Error e -> [ name; "-"; "-"; "-"; "ERROR: " ^ e ]
        | Ok stats ->
            [
              name;
              string_of_int stats.Lr_modelcheck.Modelcheck.pr_states;
              string_of_int stats.Lr_modelcheck.Modelcheck.newpr_states;
              string_of_int stats.Lr_modelcheck.Modelcheck.longest_execution;
              (match term.Lr_modelcheck.Modelcheck.violation with
              | None -> "proved"
              | Some v -> "VIOLATION: " ^ v);
            ])
      instances
  in
  T.print
    ~title:"reachable states and exact worst-case work (exhaustive enumeration)"
    (T.make
       ~headers:
         [ "instance"; "PR states"; "NewPR states"; "longest execution"; "termination" ]
       rows);
  Printf.printf
    "note: 'longest execution' is the exact worst-case work of the instance\n(schedule-independence makes all fair executions equally long).\n"
