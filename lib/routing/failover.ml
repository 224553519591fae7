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
  let heights =
    match rule with
    | Maintenance.Partial_reversal ->
        Node.Set.fold
          (fun u m ->
            let r = Embedding.rank config.Config.embedding u in
            Node.Map.add u { Heights.pa = 0; pb = -r; pid = u } m)
          (Config.nodes config) Node.Map.empty
    | Maintenance.Full_reversal ->
        let n = Node.Set.cardinal (Config.nodes config) in
        Node.Set.fold
          (fun u m ->
            let r = Embedding.rank config.Config.embedding u in
            Node.Map.add u { Heights.pa = n - r; pb = 0; pid = u } m)
          (Config.nodes config) Node.Map.empty
  in
  (* Crash the destination: drop all its links. *)
  let graph =
    Node.Set.fold
      (fun v g -> Digraph.remove_edge g dest v)
      (Digraph.neighbors config.Config.initial dest)
      config.Config.initial
  in
  let heights = ref heights in
  let graph = ref graph in
  let height u = Node.Map.find u !heights in
  let raise_height u =
    let nbrs = Digraph.neighbors !graph u in
    Maintenance.raise_height rule (height u) (Node.Set.fold (fun v acc -> height v :: acc) nbrs [])
  in
  let reorient_at u =
    let hu = height u in
    Node.Set.iter
      (fun v ->
        let d =
          if Heights.compare_pr_height hu (height v) > 0 then Digraph.Out
          else Digraph.In
        in
        graph := Digraph.set_dir !graph u v d)
      (Digraph.neighbors !graph u)
  in
  let components =
    Undirected.connected_components (Digraph.skeleton !graph)
    |> List.filter (fun c -> not (Node.Set.equal c (Node.Set.singleton dest)))
  in
  List.map
    (fun members ->
      let leader =
        match Node.Set.max_elt_opt members with
        | Some l -> l
        | None -> assert false
      in
      let steps = ref 0 in
      let n = Node.Set.cardinal members in
      let budget = (4 * n * n) + 1000 in
      let find_sink () =
        Node.Set.fold
          (fun u acc ->
            match acc with
            | Some _ -> acc
            | None ->
                if (not (Node.equal u leader)) && Digraph.is_sink !graph u
                then Some u
                else None)
          members None
      in
      let rec loop () =
        if !steps > budget then
          failwith "Failover: budget exceeded (bug)"
        else
          match find_sink () with
          | None -> ()
          | Some u ->
              heights := Node.Map.add u (raise_height u) !heights;
              reorient_at u;
              incr steps;
              loop ()
      in
      loop ();
      (* Every member reaches the leader iff all members lie in the
         leader's backward closure: one BFS, O(n + m). *)
      let oriented = Node.Set.subset members (Digraph.reaches !graph leader) in
      { leader; members; node_steps = !steps; oriented })
    components
