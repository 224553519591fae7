open Lr_graph
open Linkrev

type node_state = {
  me : Node.t;
  (* Local view: neighbour -> direction from my perspective. *)
  dirs : Digraph.direction Node.Map.t;
  lst : Node.Set.t;
  reversals : int;
}

type msg = Reversed

type result = {
  stats : Lr_sim.Network.stats;
  view_consistent : bool;
  destination_oriented : bool;
  reversals : int;
}

let believes_sink st =
  (not (Node.Map.is_empty st.dirs))
  && Node.Map.for_all (fun _ d -> Digraph.direction_equal d Digraph.In) st.dirs

(* PR's effect computed on the local view only. *)
let local_reverse st =
  let nbrs =
    Node.Map.fold (fun v _ acc -> Node.Set.add v acc) st.dirs Node.Set.empty
  in
  let to_reverse =
    if Node.Set.equal st.lst nbrs then nbrs else Node.Set.diff nbrs st.lst
  in
  let dirs =
    Node.Set.fold (fun v dirs -> Node.Map.add v Digraph.Out dirs) to_reverse
      st.dirs
  in
  ( { st with dirs; lst = Node.Set.empty; reversals = st.reversals + 1 },
    Node.Set.fold
      (fun v acc -> { Lr_sim.Network.dest = v; msg = Reversed } :: acc)
      to_reverse [] )

let activate ~destination st =
  if Node.equal st.me destination then (st, [])
  else
    (* One reversal at a time: after reversing, the local view shows
       outgoing edges, so the node stops believing it is a sink. *)
    if believes_sink st then local_reverse st else (st, [])

let handler config =
  let destination = config.Config.destination in
  {
    Lr_sim.Network.init =
      (fun u nbrs ->
        let dirs =
          Node.Set.fold
            (fun v m ->
              Node.Map.add v (Digraph.dir config.Config.initial u v) m)
            nbrs Node.Map.empty
        in
        activate ~destination { me = u; dirs; lst = Node.Set.empty; reversals = 0 });
    on_message =
      (fun _u st ~from Reversed ->
        (* The neighbour reversed our shared edge toward us. *)
        let st =
          {
            st with
            dirs = Node.Map.add from Digraph.In st.dirs;
            lst = Node.Set.add from st.lst;
          }
        in
        activate ~destination st);
  }

let run_lossy ?jitter ?drop config =
  let topology = Config.skeleton config in
  let net =
    Lr_sim.Network.create ~topology
      ~latency:(fun _ _ -> 1.0)
      ?jitter ?drop (handler config)
  in
  let stats = Lr_sim.Network.run net in
  let state u = Lr_sim.Network.state net u in
  let view_consistent =
    Undirected.fold_edges
      (fun e acc ->
        acc
        &&
        let u, v = Edge.endpoints e in
        let du = Node.Map.find v (state u).dirs
        and dv = Node.Map.find u (state v).dirs in
        Digraph.direction_equal du (Digraph.flip dv))
      topology true
  in
  let destination_oriented =
    view_consistent
    &&
    let g =
      Undirected.fold_edges
        (fun e acc ->
          let u, v = Edge.endpoints e in
          match Node.Map.find v (state u).dirs with
          | Digraph.Out -> Digraph.add_directed_edge acc u v
          | Digraph.In -> Digraph.add_directed_edge acc v u)
        topology
        (Digraph.of_directed_edges [])
    in
    Digraph.is_destination_oriented g config.Config.destination
  in
  let reversals =
    List.fold_left
      (fun acc ((_, st) : Node.t * node_state) -> acc + st.reversals)
      0
      (Lr_sim.Network.states net)
  in
  { stats; view_consistent; destination_oriented; reversals }

let run ?jitter config = run_lossy ?jitter config

let find_inconsistency ?(attempts = 100) ?drop_rate ~n () =
  let p = Option.value ~default:0.3 drop_rate in
  let rec hunt seed =
    if seed >= attempts then None
    else
      let inst =
        Generators.random_connected_dag
          (Random.State.make [| 0x8a; seed |])
          ~n ~extra_edges:n
      in
      let config = Config.of_instance inst in
      let r =
        run_lossy
          ~jitter:(Random.State.make [| 0x8b; seed |], 4.0)
          ~drop:(Random.State.make [| 0x8c; seed |], p)
          config
      in
      if (not r.view_consistent) || not r.destination_oriented then
        Some (seed, r)
      else hunt (seed + 1)
  in
  hunt 0
