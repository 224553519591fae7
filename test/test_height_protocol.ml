open Lr_graph
open Linkrev
open Helpers
module HP = Lr_routing.Height_protocol
module M = Lr_routing.Maintenance

let test_initial_heights_realize_initial_graph () =
  for seed = 0 to 4 do
    let config = random_config ~seed 12 in
    List.iter
      (fun rule ->
        let hs = M.initial_heights rule config in
        List.iter
          (fun (u, v) ->
            check_bool "edge from higher to lower" true
              (Heights.compare_pr_height (Node.Map.find u hs) (Node.Map.find v hs)
               > 0))
          (Digraph.directed_edges config.Config.initial))
      [ M.Partial_reversal; M.Full_reversal ]
  done

let test_converges_to_destination_orientation () =
  for seed = 0 to 9 do
    let config = random_config ~seed 18 in
    List.iter
      (fun rule ->
        let r = HP.run ~rule config in
        check_bool "completed" true r.HP.stats.Lr_sim.Network.completed;
        check_bool "oriented" true r.HP.destination_oriented)
      [ M.Partial_reversal; M.Full_reversal ]
  done

let test_converges_under_jitter () =
  for seed = 0 to 4 do
    let config = random_config ~seed 15 in
    let r = HP.run ~jitter:(rng (seed + 100), 3.0) ~rule:M.Partial_reversal config in
    check_bool "oriented under jitter" true r.HP.destination_oriented
  done

let test_quiet_when_already_oriented () =
  let config = Config.of_instance (Generators.good_chain 8) in
  let r = HP.run ~rule:M.Partial_reversal config in
  check_int "no raises" 0 r.HP.total_raises;
  check_int "no messages" 0 r.HP.stats.Lr_sim.Network.sent

let test_destination_never_raises () =
  for seed = 0 to 4 do
    let config = random_config ~seed 12 in
    let r = HP.run ~rule:M.Partial_reversal config in
    check_int "destination raises" 0
      (Node.Map.find_or ~default:0 config.Config.destination r.HP.raises_per_node)
  done

let test_async_work_matches_sequential_pr () =
  (* Link reversal work is schedule independent, and the async protocol
     is just another schedule: per-node raises equal the sequential
     executor's node steps. *)
  for seed = 0 to 4 do
    let config = random_config ~seed 12 in
    let async = HP.run ~rule:M.Partial_reversal config in
    let seq =
      Executor.run
        ~scheduler:(Lr_automata.Scheduler.first ())
        ~destination:config.Config.destination (Heights.pr_algo config)
    in
    check_bool "same per-node work" true
      (Node.Map.equal Int.equal
         (Node.Map.filter (fun _ c -> c > 0) async.HP.raises_per_node)
         (Node.Map.filter (fun _ c -> c > 0) seq.Executor.node_steps))
  done

let test_bad_chain_message_cost_fr_vs_pr () =
  (* On the bad chain FR does quadratic work, PR linear, and messages
     scale with work. *)
  let config = bad_chain 12 in
  let pr = HP.run ~rule:M.Partial_reversal config in
  let fr = HP.run ~rule:M.Full_reversal config in
  check_bool "both oriented" true
    (pr.HP.destination_oriented && fr.HP.destination_oriented);
  check_bool "PR cheaper in raises" true (pr.HP.total_raises < fr.HP.total_raises);
  check_bool "PR cheaper in messages" true
    (pr.HP.stats.Lr_sim.Network.sent < fr.HP.stats.Lr_sim.Network.sent)

(* The raise and message counts of both rules, pinned on D-F5's n = 20
   random DAG, so a change to the seeding, the raise or the message
   schedule shows. *)
let test_counts_pinned () =
  let config =
    Config.of_instance
      (Generators.random_connected_dag (Random.State.make [| 0xbe; 60 |]) ~n:20 ~extra_edges:20)
  in
  List.iter
    (fun (name, rule, raises, msgs) ->
      let r = HP.run ~rule config in
      check_bool (name ^ " oriented") true r.HP.destination_oriented;
      check_int (name ^ " raises") raises r.HP.total_raises;
      check_int (name ^ " messages") msgs r.HP.stats.Lr_sim.Network.sent)
    [ ("PR", M.Partial_reversal, 24, 95); ("FR", M.Full_reversal, 24, 92) ]

let test_lossy_with_beacons_converges () =
  (* 30% message loss stalls the bare protocol; periodic beacons repair
     the stale views and convergence returns. *)
  for seed = 0 to 4 do
    let config = random_config ~seed 14 in
    let r =
      HP.run
        ~drop:(rng (seed + 50), 0.3)
        ~beacon:5.0 ~until:2000.0 ~rule:M.Partial_reversal config
    in
    check_bool "oriented despite loss" true r.HP.destination_oriented
  done

let test_lossy_without_beacons_can_stall () =
  (* Heavy loss with no retransmission leaves some instance stuck with
     stale views: find one where convergence fails. *)
  let stalled = ref false in
  for seed = 0 to 19 do
    if not !stalled then begin
      let config = random_config ~seed 14 in
      let r = HP.run ~drop:(rng (seed + 90), 0.8) ~rule:M.Partial_reversal config in
      if not r.HP.destination_oriented then stalled := true
    end
  done;
  check_bool "some run stalls under 80% loss" true !stalled

let () =
  Alcotest.run "height_protocol"
    [
      suite "height_protocol"
        [
          case "initial heights realize G'_init"
            test_initial_heights_realize_initial_graph;
          case "converges destination-oriented" test_converges_to_destination_orientation;
          case "converges under jitter" test_converges_under_jitter;
          case "quiet when already oriented" test_quiet_when_already_oriented;
          case "destination never raises" test_destination_never_raises;
          case "async work = sequential work" test_async_work_matches_sequential_pr;
          case "FR vs PR message cost on the bad chain"
            test_bad_chain_message_cost_fr_vs_pr;
          case "counts pinned on D-F5's n=20 DAG" test_counts_pinned;
          case "lossy links + beacons converge" test_lossy_with_beacons_converges;
          case "heavy loss without beacons stalls" test_lossy_without_beacons_can_stall;
        ];
    ]
