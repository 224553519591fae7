open Lr_graph
open Linkrev

type outcome = {
  leader : Node.t;
  members : Node.Set.t;
  node_steps : int;
  oriented : bool;
}

let elect_after_destination_failure rule config =
  let dest = config.Config.destination in
  let graph = Digraph.isolate config.Config.initial dest in
  let heights = Maintenance.initial_heights rule config in
  Undirected.connected_components (Digraph.skeleton graph)
  |> List.filter (fun c -> not (Node.Set.mem dest c))
  |> List.map (fun members ->
         let leader = Node.Set.max_elt members in
         let m = Maintenance.of_heights rule graph ~destination:leader heights in
         ignore (Maintenance.stabilize m);
         {
           leader;
           members;
           node_steps = Maintenance.total_work m;
           oriented = Maintenance.is_destination_oriented m;
         })
