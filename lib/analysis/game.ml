open Lr_graph
open Linkrev

type strategy = Full | Partial

type profile = strategy Node.Map.t

type result = {
  costs : int Node.Map.t;
  social_cost : int;
  terminated : bool;
  acyclic_throughout : bool;
}

let uniform strategy config =
  Node.Set.fold
    (fun u p ->
      if Node.equal u config.Config.destination then p
      else Node.Map.add u strategy p)
    (Config.nodes config) Node.Map.empty

(* A mixed step: a Partial player follows PR's list semantics; a Full
   player reverses everything.  Either way every neighbour that had an
   edge reversed toward it records the reverser in its list — the list
   tracks what a node observes, not what strategy its neighbours play. *)
let step_of config (s : Pr.state) u strategy =
  match strategy with
  | Partial -> Pr.apply config s (Node.Set.singleton u)
  | Full ->
      let nbrs = Config.nbrs config u in
      let graph = Digraph.reverse_toward s.Pr.graph u nbrs in
      let lists =
        Node.Set.fold
          (fun v lists ->
            let lv = Node.Map.find_or ~default:Node.Set.empty v lists in
            Node.Map.add v (Node.Set.add u lv) lists)
          nbrs s.Pr.lists
      in
      { Pr.graph; lists = Node.Map.add u Node.Set.empty lists }

let play config profile =
  let n = Node.Set.cardinal (Config.nodes config) in
  let budget = (4 * n * n) + 1000 in
  let dest = config.Config.destination in
  let rec loop s costs steps acyclic =
    let sinks = Node.Set.remove dest (Digraph.sinks s.Pr.graph) in
    match Node.Set.min_elt_opt sinks with
    | None -> (costs, true, acyclic)
    | Some u ->
        if steps >= budget then (costs, false, acyclic)
        else
          let strategy = Node.Map.find_or ~default:Partial u profile in
          let s = step_of config s u strategy in
          let acyclic = acyclic && Digraph.is_acyclic s.Pr.graph in
          let costs =
            Node.Map.add u (Node.Map.find_or ~default:0 u costs + 1) costs
          in
          loop s costs (steps + 1) acyclic
  in
  let costs, terminated, acyclic =
    loop (Pr.initial config) Node.Map.empty 0 true
  in
  {
    costs;
    social_cost = Node.Map.fold (fun _ c acc -> acc + c) costs 0;
    terminated;
    acyclic_throughout = acyclic;
  }

let cost_of result u = Node.Map.find_or ~default:0 u result.costs

let all_profiles config =
  let players =
    Node.Set.elements
      (Node.Set.remove config.Config.destination (Config.nodes config))
  in
  List.fold_left
    (fun acc u ->
      List.concat_map
        (fun p -> [ Node.Map.add u Full p; Node.Map.add u Partial p ])
        acc)
    [ Node.Map.empty ] players

let flip = function Full -> Partial | Partial -> Full

let best_response_violations config profile =
  let base = play config profile in
  Node.Map.fold
    (fun u strategy acc ->
      let deviated = Node.Map.add u (flip strategy) profile in
      let dev = play config deviated in
      let here = cost_of base u and there = cost_of dev u in
      (* A deviation into a non-terminating run is not an improvement. *)
      if dev.terminated && there < here then (u, here, there) :: acc else acc)
    profile []

let is_nash config profile =
  match best_response_violations config profile with
  | [] -> true
  | _ :: _ -> false

let social_optimum config =
  match all_profiles config with
  | [] -> invalid_arg "Game.social_optimum: no players"
  | p0 :: rest ->
      let r0 = play config p0 in
      List.fold_left
        (fun (bp, br) p ->
          let r = play config p in
          if r.terminated && r.social_cost < br.social_cost then (p, r)
          else (bp, br))
        (p0, r0) rest
