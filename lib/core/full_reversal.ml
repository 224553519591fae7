open Lr_graph

type state = { graph : Digraph.t }
type action = Reverse of Node.t

let initial config = { graph = config.Config.initial }
let apply s u = { graph = Digraph.reverse_all_at s.graph u }

let is_enabled config s (Reverse u) =
  (not (Node.equal u config.Config.destination)) && Digraph.is_sink s.graph u

let enabled config s =
  Node.Set.remove config.Config.destination (Digraph.sinks s.graph)
  |> Node.Set.elements
  |> List.map (fun u -> Reverse u)

let pp_state ppf s = Digraph.pp ppf s.graph
let pp_action ppf (Reverse u) = Format.fprintf ppf "reverse(%a)" Node.pp u

let automaton config =
  Lr_automata.Automaton.make ~name:"FR" ~initial:(initial config)
    ~enabled:(enabled config)
    ~step:(fun s (Reverse u) ->
      if not (is_enabled config s (Reverse u)) then
        invalid_arg "FR.step: reverse(u) not enabled"
      else apply s u)
    ~is_enabled:(is_enabled config)
    ~equal_state:(fun s1 s2 -> Digraph.equal s1.graph s2.graph)
    ~pp_state ~pp_action ()

let algo config =
  {
    Algo.automaton = automaton config;
    graph_of = (fun s -> s.graph);
    actors = (fun (Reverse u) -> Node.Set.singleton u);
  }
