open Lr_graph

type policy = Zero_out | Keep

type state = { graph : Digraph.t; labels : bool Node.Map.t Node.Map.t }
type action = Reverse of Node.t

let label s u v =
  match Node.Map.find_opt u s.labels with
  | None -> true
  | Some m -> Node.Map.find_or ~default:true v m

let set_label s u v value =
  let m = Node.Map.find_or ~default:Node.Map.empty u s.labels in
  { s with labels = Node.Map.add u (Node.Map.add v value m) s.labels }

let initial ?labels config =
  let base = { graph = config.Config.initial; labels = Node.Map.empty } in
  match labels with
  | None -> base
  | Some f ->
      Node.Set.fold
        (fun u s ->
          Node.Set.fold
            (fun v s -> set_label s u v (f u v))
            (Config.nbrs config u) s)
        (Config.nodes config) base

let reversal_set config s u =
  let nbrs = Config.nbrs config u in
  let ones = Node.Set.filter (fun v -> label s u v) nbrs in
  if Node.Set.is_empty ones then nbrs else ones

let apply policy config s u =
  let to_reverse = reversal_set config s u in
  let graph = Digraph.reverse_toward s.graph u to_reverse in
  let s = { s with graph } in
  (* The acting node resets all its own labels to one. *)
  let s =
    Node.Set.fold (fun v s -> set_label s u v true) (Config.nbrs config u) s
  in
  match policy with
  | Keep -> s
  | Zero_out ->
      Node.Set.fold (fun v s -> set_label s v u false) to_reverse s

let is_enabled config s (Reverse u) =
  (not (Node.equal u config.Config.destination)) && Digraph.is_sink s.graph u

let enabled config s =
  Node.Set.remove config.Config.destination (Digraph.sinks s.graph)
  |> Node.Set.elements
  |> List.map (fun u -> Reverse u)

let pp_action ppf (Reverse u) = Format.fprintf ppf "reverse(%a)" Node.pp u

let automaton ?labels policy config =
  let name =
    match policy with Zero_out -> "BLL-zero" | Keep -> "BLL-keep"
  in
  Lr_automata.Automaton.make ~name ~initial:(initial ?labels config)
    ~enabled:(enabled config)
    ~step:(fun s (Reverse u) ->
      if not (is_enabled config s (Reverse u)) then
        invalid_arg "Bll.step: reverse(u) not enabled"
      else apply policy config s u)
    ~is_enabled:(is_enabled config)
    ~equal_state:(fun s1 s2 -> Digraph.equal s1.graph s2.graph)
    ~pp_state:(fun ppf s -> Digraph.pp ppf s.graph)
    ~pp_action ()
