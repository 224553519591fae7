(* Ad-hoc network routing under churn — the scenario that motivated
   link reversal algorithms (Gafni–Bertsekas 1981, TORA).

   A 24-node mobile network keeps every node's route to a gateway while
   links fail and appear.  Partial Reversal repairs the structure after
   each change; the demo prints the repair cost and a sample route.

   Run with: dune exec examples/adhoc_routing.exe *)

open Lr_graph
open Linkrev
module M = Lr_routing.Maintenance

let pp_route ppf = function
  | None -> Format.pp_print_string ppf "(no route)"
  | Some path ->
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " -> ")
        Node.pp ppf path

let () =
  let rng = Random.State.make [| 2026 |] in
  let inst = Generators.random_connected_dag_dest rng ~n:24 ~extra_edges:30 ~destination:0 in
  let config = Config.of_instance inst in
  Format.printf "network: %d nodes, %d links, gateway = node 0@."
    (Digraph.num_nodes config.Config.initial)
    (Digraph.num_edges config.Config.initial);

  let m = M.create M.Partial_reversal config in
  Format.printf "initial stabilization cost: %d reversals@.@." (M.total_work m);

  let watched = 17 in
  Format.printf "route from %d: %a@.@." watched pp_route (M.route m watched);

  (* Churn: 12 random link failures interleaved with 6 new links. *)
  let failures = ref 0 and partitions = ref 0 in
  for round = 1 to 12 do
    let edges = Digraph.directed_edges (M.graph m) in
    let u, v = List.nth edges (Random.State.int rng (List.length edges)) in
    (match M.fail_link m u v with
    | M.Stabilized { node_steps } ->
        incr failures;
        Format.printf "round %2d: link {%a,%a} failed, repaired with %d reversals@."
          round Node.pp u Node.pp v node_steps
    | M.Partitioned lost ->
        incr partitions;
        Format.printf "round %2d: link {%a,%a} failed, PARTITION — lost %a@."
          round Node.pp u Node.pp v Node.Set.pp lost;
        (* bring the lost nodes back with a fresh link to the gateway side *)
        let back = Node.Set.min_elt lost in
        M.add_link m back 0;
        Format.printf "          relinked %a to the gateway@." Node.pp back);
    if round mod 2 = 0 then begin
      (* a new radio link appears between two random nodes *)
      let nodes = Node.Set.elements (Digraph.nodes (M.graph m)) in
      let pick () = List.nth nodes (Random.State.int rng (List.length nodes)) in
      let a = pick () and b = pick () in
      if (not (Node.equal a b)) && not (Digraph.mem_edge (M.graph m) a b) then begin
        M.add_link m a b;
        Format.printf "round %2d: new link {%a,%a} (oriented by heights, no work)@."
          round Node.pp a Node.pp b
      end
    end;
    assert (Digraph.is_acyclic (M.graph m));
    assert (M.is_destination_oriented m)
  done;

  Format.printf "@.%d failures repaired, %d partitions healed@." !failures !partitions;
  Format.printf "total reversal work: %d@." (M.total_work m);
  Format.printf "route from %d now: %a@." watched pp_route (M.route m watched);

  (* Compare against Full Reversal on the same churn-free instance. *)
  let mf = M.create M.Full_reversal config in
  Format.printf "@.for reference, initial stabilization with Full Reversal: %d reversals@."
    (M.total_work mf)
