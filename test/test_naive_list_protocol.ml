open Lr_graph
open Linkrev
open Helpers
module NP = Lr_routing.Naive_list_protocol

let test_reliable_converges () =
  for seed = 0 to 9 do
    let config = random_config ~seed 15 in
    let r = NP.run ~jitter:(rng (seed + 70), 3.0) config in
    check_bool "views consistent" true r.NP.view_consistent;
    check_bool "oriented" true r.NP.destination_oriented
  done

let test_reliable_work_equals_sequential () =
  (* The async run is just another schedule: same total work. *)
  for seed = 0 to 9 do
    let config = random_config ~seed 15 in
    let r = NP.run ~jitter:(rng (seed + 71), 3.0) config in
    let seq =
      Executor.run
        ~scheduler:(Lr_automata.Scheduler.first ())
        ~destination:config.Config.destination (One_step_pr.algo config)
    in
    check_int "work matches sequential PR" seq.Executor.total_node_steps
      r.NP.reversals
  done

let test_already_oriented_is_quiet () =
  let config = Config.of_instance (Generators.good_chain 8) in
  let r = NP.run config in
  check_int "no reversals" 0 r.NP.reversals;
  check_int "no messages" 0 r.NP.stats.Lr_sim.Network.sent

let test_loss_breaks_views () =
  match NP.find_inconsistency ~attempts:50 ~n:12 () with
  | Some (_seed, r) ->
      check_bool "failure is real" true
        ((not r.NP.view_consistent) || not r.NP.destination_oriented)
  | None ->
      Alcotest.fail "lossy naive protocol should fail on some seed"

let test_reliable_never_fails_the_hunt () =
  (* The same hunt with zero loss must come up empty. *)
  check_bool "no failure without loss" true
    (NP.find_inconsistency ~attempts:25 ~drop_rate:0.0 ~n:12 () = None)

let test_contrast_with_height_protocol () =
  (* On a seed where the naive protocol breaks under loss, the height
     protocol with beacons still converges. *)
  match NP.find_inconsistency ~attempts:50 ~n:12 () with
  | None -> Alcotest.fail "expected a lossy failure to contrast against"
  | Some (seed, _) ->
      let inst =
        Generators.random_connected_dag
          (Random.State.make [| 0x8a; seed |])
          ~n:12 ~extra_edges:12
      in
      let config = Config.of_instance inst in
      let module HP = Lr_routing.Height_protocol in
      let r =
        HP.run
          ~drop:(Random.State.make [| 0x8c; seed |], 0.3)
          ~beacon:5.0 ~until:3000.0 ~rule:Lr_routing.Maintenance.Partial_reversal config
      in
      check_bool "height protocol survives the same conditions" true
        r.HP.destination_oriented

let () =
  Alcotest.run "naive_list_protocol"
    [
      suite "naive_list_protocol"
        [
          case "reliable links converge" test_reliable_converges;
          case "reliable work equals sequential PR"
            test_reliable_work_equals_sequential;
          case "already-oriented networks stay quiet" test_already_oriented_is_quiet;
          case "message loss breaks the views" test_loss_breaks_views;
          case "no loss, no failure" test_reliable_never_fails_the_hunt;
          case "height protocol survives where lists fail"
            test_contrast_with_height_protocol;
        ];
    ]
