(* Property-based tests for the routing and simulation substrates. *)

open Lr_graph
open Linkrev
module Q = QCheck

let gen_params =
  Q.Gen.(
    let* n = int_range 4 20 in
    let* extra = int_range 0 n in
    let* seed = int_range 0 1_000_000 in
    return (n, extra, seed))

let arb_params =
  Q.make
    ~print:(fun (n, e, s) -> Printf.sprintf "n=%d extra=%d seed=%d" n e s)
    gen_params

let config_of (n, extra, seed) =
  Config.of_instance
    (Generators.random_connected_dag
       (Random.State.make [| 0xab; seed |])
       ~n ~extra_edges:extra)

let count = 100

let prop name f = Q.Test.make ~count ~name arb_params f

let tora_props =
  [
    prop "TORA: creation routes everyone, acyclic" (fun p ->
        let t = Lr_routing.Tora.create (config_of p) in
        Lr_routing.Tora.routed_fraction t = 1.0 && Lr_routing.Tora.acyclic t);
    prop "TORA: failure storm with healing restores all routes" (fun p ->
        let module T = Lr_routing.Tora in
        let _, _, seed = p in
        let t = T.create (config_of p) in
        let r = Random.State.make [| 0xcd; seed |] in
        for _ = 1 to 15 do
          let edges = Edge.Set.elements (Undirected.edges (T.skeleton t)) in
          if edges <> [] then begin
            let e = List.nth edges (Random.State.int r (List.length edges)) in
            let u, v = Edge.endpoints e in
            match T.fail_link t u v with
            | T.Maintained _ -> ()
            | T.Partition_detected { cleared; _ } -> (
                match Node.Set.choose_opt cleared with
                | Some w
                  when not (Undirected.mem_edge (T.skeleton t) w (T.destination t))
                  ->
                    ignore (T.add_link t w (T.destination t))
                | _ -> ())
          end
        done;
        T.acyclic t && T.routed_fraction t = 1.0);
  ]

let maintenance_props =
  [
    prop "maintenance: single repairable failures keep orientation" (fun p ->
        let module M = Lr_routing.Maintenance in
        let _, _, seed = p in
        let m = M.create M.Partial_reversal (config_of p) in
        let r = Random.State.make [| 0xef; seed |] in
        let sound = ref true in
        for _ = 1 to 10 do
          let edges = Digraph.directed_edges (M.graph m) in
          if edges <> [] then begin
            let u, v = List.nth edges (Random.State.int r (List.length edges)) in
            (match M.fail_link m u v with
            | M.Stabilized _ | M.Partitioned _ -> ());
            sound :=
              !sound
              && Digraph.is_acyclic (M.graph m)
              && M.is_destination_oriented m
          end
        done;
        !sound);
  ]

let mutex_props =
  [
    prop "mutex: every request served FIFO, graph stays sound" (fun p ->
        let module X = Lr_routing.Mutex in
        let config = config_of p in
        let mx = X.create config in
        let requesters =
          Node.Set.elements
            (Node.Set.remove config.Config.destination (Config.nodes config))
        in
        List.iter (X.request mx) requesters;
        let rec drain served =
          match X.grant_next mx with
          | None -> List.rev served
          | Some (r, _) ->
              if
                not
                  (Digraph.is_acyclic (X.graph mx) && X.oriented_to_holder mx)
              then [ -1 ]
              else drain (r :: served)
        in
        drain [] = requesters);
  ]

let protocol_props =
  [
    prop "height protocol converges (reliable links)" (fun p ->
        let r =
          Lr_routing.Height_protocol.run ~rule:Lr_routing.Maintenance.Partial_reversal
            (config_of p)
        in
        r.Lr_routing.Height_protocol.destination_oriented);
    prop "height protocol: beacons overcome 25% loss" (fun p ->
        let _, _, seed = p in
        let r =
          Lr_routing.Height_protocol.run
            ~drop:(Random.State.make [| 0x11; seed |], 0.25)
            ~beacon:4.0 ~until:3000.0
            ~rule:Lr_routing.Maintenance.Partial_reversal (config_of p)
        in
        r.Lr_routing.Height_protocol.destination_oriented);
  ]

let substrate_props =
  [
    prop "fast engine == persistent automata (PR and FR)" (fun p ->
        let config = config_of p in
        let check rule algo =
          let slow =
            Executor.run
              ~scheduler:(Lr_automata.Scheduler.first ())
              ~destination:config.Config.destination algo
          in
          let engine = Lr_fast.Fast_engine.of_config rule config in
          let fast = Lr_fast.Fast_engine.run engine in
          slow.Executor.total_node_steps = fast.Lr_fast.Fast_engine.work
          && Digraph.equal slow.Executor.final_graph
               (Lr_fast.Fast_engine.to_digraph engine)
        in
        check Lr_fast.Fast_engine.Partial (One_step_pr.algo config)
        && check Lr_fast.Fast_engine.Full (Full_reversal.algo config));
    prop "serial: instances round-trip" (fun p ->
        let n, extra, seed = p in
        let inst =
          Generators.random_connected_dag
            (Random.State.make [| 0xab; seed |])
            ~n ~extra_edges:extra
        in
        match Serial.instance_of_string (Serial.instance_to_string inst) with
        | Ok inst' ->
            Digraph.equal inst.Generators.graph inst'.Generators.graph
            && inst.Generators.destination = inst'.Generators.destination
        | Error _ -> false);
    prop "event queue drains sorted" (fun (n, _, seed) ->
        let q = Lr_sim.Event_queue.create () in
        let r = Random.State.make [| 0x33; seed |] in
        for i = 0 to (n * 13) - 1 do
          Lr_sim.Event_queue.add q ~time:(Random.State.float r 50.0) i
        done;
        let rec drain last =
          match Lr_sim.Event_queue.pop q with
          | None -> true
          | Some (t, _) -> t >= last && drain t
        in
        drain neg_infinity);
    prop "theorems bundle holds on random instances" (fun p ->
        let _, _, seed = p in
        List.for_all
          (fun (_, result) -> Result.is_ok result)
          (Theorems.all ~seed (config_of p)));
    prop "failover: every component ends leader-oriented" (fun p ->
        List.for_all
          (fun o -> o.Lr_routing.Failover.oriented)
          (Lr_routing.Failover.elect_after_destination_failure
             Lr_routing.Maintenance.Partial_reversal (config_of p)));
  ]

let () =
  let to_alcotest = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "properties_routing"
    [
      ("tora", to_alcotest tora_props);
      ("maintenance", to_alcotest maintenance_props);
      ("mutex", to_alcotest mutex_props);
      ("protocol", to_alcotest protocol_props);
      ("substrate", to_alcotest substrate_props);
    ]
