(* The asynchronous height protocol over a simulated message-passing
   network: what the paper's atomic automata look like when deployed.

   Each node only knows its neighbours' last announced heights; sinks
   raise their height (Partial or Full reversal rule) and broadcast.
   The demo compares message and reversal cost of the two rules on the
   same network, with jittered link latencies.

   Run with: dune exec examples/async_network.exe *)

open Lr_graph
open Linkrev
module HP = Lr_routing.Height_protocol
module M = Lr_routing.Maintenance

let run_rule name rule config =
  let r =
    HP.run
      ~latency:(fun u v -> 1.0 +. (0.1 *. float_of_int ((u + v) mod 5)))
      ~jitter:(Random.State.make [| 99 |], 0.5)
      ~rule config
  in
  Format.printf
    "%-8s: %4d reversals, %5d messages, simulated time %6.1f, oriented: %b@."
    name r.HP.total_raises r.HP.stats.Lr_sim.Network.sent
    r.HP.stats.Lr_sim.Network.final_time r.HP.destination_oriented;
  r

let () =
  let rng = Random.State.make [| 4242 |] in
  let inst =
    Generators.random_connected_dag_dest rng ~n:40 ~extra_edges:50 ~destination:0
  in
  let config = Config.of_instance inst in
  Format.printf "network: %d nodes, %d links, %d initially route-less@.@."
    (Digraph.num_nodes config.Config.initial)
    (Digraph.num_edges config.Config.initial)
    (Node.Set.cardinal (Config.bad_nodes config));

  let pr = run_rule "Partial" M.Partial_reversal config in
  let fr = run_rule "Full" M.Full_reversal config in

  Format.printf "@.per-node reversal counts (Partial):@.";
  Node.Map.iter
    (fun u c -> if c > 0 then Format.printf "  node %2d: %d@." u c)
    pr.HP.raises_per_node;

  (* The asynchronous run performs exactly the work of any sequential
     schedule — link reversal work is schedule-independent. *)
  let seq =
    Executor.run
      ~scheduler:(Lr_automata.Scheduler.first ())
      ~destination:0 (Heights.pr_algo config)
  in
  Format.printf
    "@.sequential PR on the same instance: %d reversals (async did %d)@."
    seq.Executor.total_node_steps pr.HP.total_raises;

  Format.printf "@.message efficiency: Partial used %.1f%% of Full's messages@."
    (100.0
    *. float_of_int pr.HP.stats.Lr_sim.Network.sent
    /. float_of_int (max 1 fr.HP.stats.Lr_sim.Network.sent))
