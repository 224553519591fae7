(* Link reversal over unreliable links.

   The height protocol's announcements can be lost in a real radio
   network.  This demo runs the same instance three ways:

     1. reliable links                      — converges;
     2. 40% loss, no retransmission        — usually stalls with stale
        neighbour views (some sink never learns it should reverse);
     3. 40% loss + periodic height beacons — converges again, at the
        cost of steady background traffic.

   Run with: dune exec examples/lossy_network.exe *)

open Lr_graph
open Linkrev
module HP = Lr_routing.Height_protocol
module M = Lr_routing.Maintenance

let show name (r : HP.result) =
  Format.printf
    "%-28s: %4d raises, %5d msgs sent, oriented: %b@."
    name r.HP.total_raises r.HP.stats.Lr_sim.Network.sent
    r.HP.destination_oriented

let () =
  let rng = Random.State.make [| 1234 |] in
  let inst =
    Generators.random_connected_dag_dest rng ~n:30 ~extra_edges:25
      ~destination:0
  in
  let config = Config.of_instance inst in
  Format.printf "network: %d nodes, %d links, %d route-less nodes@.@."
    (Digraph.num_nodes config.Config.initial)
    (Digraph.num_edges config.Config.initial)
    (Node.Set.cardinal (Config.bad_nodes config));

  show "reliable" (HP.run ~rule:M.Partial_reversal config);

  (* Find a seed where bare loss visibly stalls (not guaranteed on
     every seed — loss is random). *)
  let stalled =
    let rec hunt seed =
      if seed > 50 then None
      else
        let r =
          HP.run
            ~drop:(Random.State.make [| seed |], 0.4)
            ~rule:M.Partial_reversal config
        in
        if r.HP.destination_oriented then hunt (seed + 1) else Some (seed, r)
    in
    hunt 0
  in
  (match stalled with
  | Some (seed, r) ->
      show (Printf.sprintf "40%% loss (seed %d)" seed) r;
      Format.printf
        "   ^ stalled: some node's view of a neighbour is stale forever@."
  | None ->
      Format.printf "40%% loss: all 50 seeds happened to converge anyway@.");

  let r =
    HP.run
      ~drop:(Random.State.make [| 7 |], 0.4)
      ~beacon:5.0 ~until:2000.0 ~rule:M.Partial_reversal config
  in
  show "40% loss + beacons" r;
  Format.printf
    "   ^ periodic re-announcements repair stale views; convergence returns@."
