open Lr_graph

type outcome = {
  steps : int;
  node_steps : int Node.Map.t;
  total_node_steps : int;
  edge_reversals : int;
  final_graph : Digraph.t;
  quiescent : bool;
  destination_oriented : bool;
}

let count_flips g1 g2 =
  Undirected.fold_edges
    (fun e acc ->
      let u, v = Edge.endpoints e in
      if Digraph.direction_equal (Digraph.dir g1 u v) (Digraph.dir g2 u v) then
        acc
      else acc + 1)
    (Digraph.skeleton g1) 0

let measure ~observe ~destination (algo : ('s, 'a) Algo.t) exec =
  let node_steps, edge_reversals =
    List.fold_left
      (fun (ns, flips) ({ Lr_automata.Execution.before; action; after } as step) ->
        (match observe with None -> () | Some f -> f step);
        let ns =
          Node.Set.fold
            (fun u ns -> Node.Map.add u (Node.Map.find_or ~default:0 u ns + 1) ns)
            (algo.Algo.actors action) ns
        in
        (ns, flips + count_flips (algo.Algo.graph_of before) (algo.Algo.graph_of after)))
      (Node.Map.empty, 0) exec.Lr_automata.Execution.steps
  in
  let final = Lr_automata.Execution.final exec in
  let final_graph = algo.Algo.graph_of final in
  {
    steps = Lr_automata.Execution.length exec;
    node_steps;
    total_node_steps = Node.Map.fold (fun _ c acc -> acc + c) node_steps 0;
    edge_reversals;
    final_graph;
    quiescent = Lr_automata.Automaton.quiescent algo.Algo.automaton final;
    destination_oriented =
      Digraph.is_destination_oriented final_graph destination;
  }

let run_execution ~destination algo exec =
  measure ~observe:None ~destination algo exec

let run ?max_steps ?observe ~scheduler ~destination algo =
  let exec =
    Lr_automata.Execution.run ?max_steps ~scheduler algo.Algo.automaton
  in
  measure ~observe ~destination algo exec

let work o = o.total_node_steps

let pp ppf o =
  Format.fprintf ppf
    "@[<v>steps: %d@,node steps: %d@,edge reversals: %d@,quiescent: %b@,destination-oriented: %b@]"
    o.steps o.total_node_steps o.edge_reversals o.quiescent
    o.destination_oriented
