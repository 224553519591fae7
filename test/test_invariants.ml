open Lr_graph
open Linkrev
open Helpers
module A = Lr_automata

(* Invariants hold in every state of random executions: the statistical
   version of the paper's induction proofs (the model checker covers the
   exhaustive version on small instances). *)

let pr_execution ~seed config =
  run_random ~seed (Pr.automaton ~mode:Pr.Singletons_and_max config)

let newpr_execution ~seed config = run_random ~seed (New_pr.automaton config)

let test_pr_invariants_random () =
  for seed = 0 to 24 do
    let config = random_config ~seed 14 in
    expect_no_violation "PR invariants"
      (A.Invariant.check_execution (Invariants.pr_all config)
         (pr_execution ~seed config))
  done

let test_pr_invariants_families () =
  List.iter
    (fun config ->
      expect_no_violation "PR invariants"
        (A.Invariant.check_execution (Invariants.pr_all config)
           (pr_execution ~seed:1 config)))
    [
      diamond ();
      bad_chain 10;
      sawtooth 10;
      Config.of_instance (Generators.grid ~rows:3 ~cols:3);
      Config.of_instance (Generators.binary_tree ~depth:3);
      Config.of_instance (Generators.star ~center:0 ~leaves:6 ~inward:false);
      (* Invariant 3.2 holds vacuously at a node with no neighbours *)
      isolated_node ();
    ]

let test_newpr_invariants_random () =
  for seed = 0 to 24 do
    let config = random_config ~seed 14 in
    expect_no_violation "NewPR invariants"
      (A.Invariant.check_execution (Invariants.newpr_all config)
         (newpr_execution ~seed config))
  done

let test_newpr_invariants_families () =
  List.iter
    (fun config ->
      expect_no_violation "NewPR invariants"
        (A.Invariant.check_execution (Invariants.newpr_all config)
           (newpr_execution ~seed:1 config)))
    [
      diamond ();
      bad_chain 10;
      sawtooth 10;
      Config.of_instance (Generators.grid ~rows:3 ~cols:3);
      Config.of_instance (Generators.half_bad_chain 9);
    ]

let test_inv_3_2_characterizes_sink_lists () =
  (* Corollary 3.4 in action: at every sink, the list is exactly in-nbrs
     or exactly out-nbrs. *)
  let config = sawtooth 12 in
  let exec = pr_execution ~seed:3 config in
  List.iter
    (fun (s : Pr.state) ->
      Node.Set.iter
        (fun u ->
          if Digraph.is_sink s.Pr.graph u then
            let lst = Pr.list_of s u in
            check_bool "list = in-nbrs or out-nbrs" true
              (Node.Set.equal lst (Config.in_nbrs config u)
              || Node.Set.equal lst (Config.out_nbrs config u)))
        (Config.nodes config))
    (A.Execution.states exec)

let test_inv_4_1_detects_forged_state () =
  (* Negative test: a hand-forged state with equal even parities but a
     right-to-left edge must be flagged. *)
  let config =
    Config.make_exn (Digraph.of_directed_edges [ (0, 1) ]) ~destination:0
  in
  let forged =
    { New_pr.graph = Digraph.reverse_edge config.Config.initial 0 1;
      counts = Node.Map.empty }
  in
  let inv = Invariants.newpr_inv_4_1 config in
  check_bool "violation reported" true
    (Result.is_error (inv.A.Invariant.check forged))

let test_inv_4_2a_detects_forged_counts () =
  let config =
    Config.make_exn (Digraph.of_directed_edges [ (0, 1) ]) ~destination:0
  in
  let forged =
    { New_pr.graph = config.Config.initial;
      counts = Node.Map.add 1 5 Node.Map.empty }
  in
  let inv = Invariants.newpr_inv_4_2 config in
  match inv.A.Invariant.check forged with
  | Error msg -> check_bool "names part (a)" true (String.length msg > 2 && String.sub msg 0 3 = "(a)")
  | Ok () -> Alcotest.fail "count gap of 5 must violate (a)"

let test_inv_4_2d_detects_wrong_direction () =
  (* count[1] = 1 > count[0] = 0, but the edge points 0 -> 1. *)
  let config =
    Config.make_exn (Digraph.of_directed_edges [ (0, 1) ]) ~destination:0
  in
  let forged =
    { New_pr.graph = config.Config.initial;
      counts = Node.Map.add 1 1 Node.Map.empty }
  in
  let inv = Invariants.newpr_inv_4_2 config in
  check_bool "violated" true (Result.is_error (inv.A.Invariant.check forged))

let test_inv_3_2_detects_forged_list () =
  (* A list containing both an in- and an out-neighbour violates 3.2
     (and Corollary 3.3). *)
  let config = diamond () in
  let forged =
    { (Pr.initial config) with
      Pr.lists = Node.Map.add 1 (Node.Set.of_list [ 0; 3 ]) Node.Map.empty }
  in
  check_bool "3.2 violated" true
    (Result.is_error ((Invariants.pr_inv_3_2 config).A.Invariant.check forged));
  check_bool "3.3 violated" true
    (Result.is_error ((Invariants.pr_cor_3_3 config).A.Invariant.check forged))

let test_acyclic_invariant_on_cycle () =
  let cyclic = Digraph.of_directed_edges [ (0, 1); (1, 2); (2, 0) ] in
  let inv = Invariants.acyclic ~graph_of:Fun.id in
  match inv.A.Invariant.check cyclic with
  | Error msg -> check_bool "mentions cycle" true (String.length msg >= 5)
  | Ok () -> Alcotest.fail "cycle must be reported"

let test_skeleton_preserved_detects_change () =
  let config = diamond () in
  let inv =
    Invariants.skeleton_preserved config ~graph_of:(fun (s : Pr.state) ->
        s.Pr.graph)
  in
  let chopped =
    { (Pr.initial config) with
      Pr.graph = Digraph.remove_edge config.Config.initial 0 1 }
  in
  check_bool "change detected" true
    (Result.is_error (inv.A.Invariant.check chopped));
  check_bool "clean state passes" true
    (inv.A.Invariant.check (Pr.initial config) = Ok ())

let test_theorem_4_3_acyclicity_along_newpr () =
  for seed = 0 to 14 do
    let config = random_config ~seed 16 in
    let exec = newpr_execution ~seed config in
    List.iter
      (fun (s : New_pr.state) ->
        check_bool "acyclic (Thm 4.3)" true (Digraph.is_acyclic s.New_pr.graph))
      (A.Execution.states exec)
  done

let test_theorem_5_5_acyclicity_along_pr () =
  for seed = 0 to 14 do
    let config = random_config ~seed 16 in
    let exec = pr_execution ~seed config in
    List.iter
      (fun (s : Pr.state) ->
        check_bool "acyclic (Thm 5.5)" true (Digraph.is_acyclic s.Pr.graph))
      (A.Execution.states exec)
  done

let () =
  Alcotest.run "invariants"
    [
      suite "positive"
        [
          case "PR invariants on random executions" test_pr_invariants_random;
          case "PR invariants on named families" test_pr_invariants_families;
          case "NewPR invariants on random executions" test_newpr_invariants_random;
          case "NewPR invariants on named families" test_newpr_invariants_families;
          case "Corollary 3.4 at sinks" test_inv_3_2_characterizes_sink_lists;
          case "Theorem 4.3 along NewPR" test_theorem_4_3_acyclicity_along_newpr;
          case "Theorem 5.5 along PR" test_theorem_5_5_acyclicity_along_pr;
        ];
      suite "negative"
        [
          case "4.1 flags forged orientation" test_inv_4_1_detects_forged_state;
          case "4.2(a) flags forged counts" test_inv_4_2a_detects_forged_counts;
          case "4.2(d) flags wrong direction" test_inv_4_2d_detects_wrong_direction;
          case "3.2/3.3 flag forged lists" test_inv_3_2_detects_forged_list;
          case "acyclic invariant reports cycles" test_acyclic_invariant_on_cycle;
          case "skeleton preservation" test_skeleton_preserved_detects_change;
        ];
    ]
