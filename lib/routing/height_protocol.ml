open Lr_graph
open Linkrev

type node_state = {
  me : Node.t;
  height : Heights.pr_height;
  view : Heights.pr_height Node.Map.t;
  raises : int;
}

type msg = Height of Heights.pr_height

type result = {
  stats : Lr_sim.Network.stats;
  final : Digraph.t;
  raises_per_node : int Node.Map.t;
  total_raises : int;
  destination_oriented : bool;
}

let believes_sink st =
  (not (Node.Map.is_empty st.view))
  && Node.Map.for_all
       (fun _ h -> Heights.compare_pr_height st.height h < 0)
       st.view

let broadcast st =
  Node.Map.fold
    (fun v _ acc -> { Lr_sim.Network.dest = v; msg = Height st.height } :: acc)
    st.view []

(* Raise while the local view says "sink"; one raise always suffices to
   stop being a local sink, but the loop keeps the code obviously safe. *)
let activate rule ~destination st =
  if Node.equal st.me destination then (st, [])
  else
    let rec loop st sends fuel =
      if fuel = 0 || not (believes_sink st) then (st, sends)
      else
        (* One reversal according to the local view. *)
        let hs = Node.Map.fold (fun _ h acc -> h :: acc) st.view [] in
        let st =
          { st with height = Maintenance.raise_height rule st.height hs; raises = st.raises + 1 }
        in
        loop st (sends @ broadcast st) (fuel - 1)
    in
    loop st [] 4

let handler rule config =
  let destination = config.Config.destination in
  let init_heights = Maintenance.initial_heights rule config in
  {
    Lr_sim.Network.init =
      (fun u nbrs ->
        let view =
          Node.Set.fold
            (fun v m -> Node.Map.add v (Node.Map.find v init_heights) m)
            nbrs Node.Map.empty
        in
        let st =
          { me = u; height = Node.Map.find u init_heights; view; raises = 0 }
        in
        activate rule ~destination st);
    on_message =
      (fun _u st ~from (Height h) ->
        let st = { st with view = Node.Map.add from h st.view } in
        activate rule ~destination st);
  }

let run ?latency ?jitter ?drop ?beacon ?until ?max_deliveries ~rule config =
  let latency = match latency with Some f -> f | None -> fun _ _ -> 1.0 in
  let topology = Config.skeleton config in
  let timer =
    Option.map
      (fun interval ->
        (* Beacon: re-announce the current height; also re-run the sink
           check in case lost messages left us stuck. *)
        let tick _u st =
          let st, sends = activate rule ~destination:config.Config.destination st in
          (st, sends @ broadcast st)
        in
        (interval, tick))
      beacon
  in
  let net =
    Lr_sim.Network.create ~topology ~latency ?jitter ?drop ?timer
      (handler rule config)
  in
  let stats = Lr_sim.Network.run ?max_deliveries ?until net in
  let final_heights =
    List.fold_left
      (fun m (u, st) -> Node.Map.add u st.height m)
      Node.Map.empty
      (Lr_sim.Network.states net)
  in
  let final =
    Digraph.orient topology ~toward:(fun e ->
        let hl = Node.Map.find (Edge.lo e) final_heights
        and hh = Node.Map.find (Edge.hi e) final_heights in
        if Heights.compare_pr_height hl hh > 0 then Edge.hi e else Edge.lo e)
  in
  let raises_per_node =
    List.fold_left
      (fun m (u, st) -> Node.Map.add u st.raises m)
      Node.Map.empty
      (Lr_sim.Network.states net)
  in
  {
    stats;
    final;
    raises_per_node;
    total_raises = Node.Map.fold (fun _ c acc -> acc + c) raises_per_node 0;
    destination_oriented =
      Digraph.is_destination_oriented final config.Config.destination;
  }
