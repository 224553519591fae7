type t = { adj : Node.Set.t Node.Map.t; edges : Edge.Set.t }

let empty = { adj = Node.Map.empty; edges = Edge.Set.empty }

let add_node g u =
  if Node.Map.mem u g.adj then g
  else { g with adj = Node.Map.add u Node.Set.empty g.adj }

let add_edge g u v =
  let e = Edge.make u v in
  let g = add_node (add_node g u) v in
  let add_nbr a b adj =
    Node.Map.add a (Node.Set.add b (Node.Map.find a adj)) adj
  in
  { adj = add_nbr u v (add_nbr v u g.adj); edges = Edge.Set.add e g.edges }

let remove_edge g u v =
  match Edge.make u v with
  | e when not (Edge.Set.mem e g.edges) -> g
  | e ->
      let del a b adj =
        Node.Map.add a (Node.Set.remove b (Node.Map.find a adj)) adj
      in
      { adj = del u v (del v u g.adj); edges = Edge.Set.remove e g.edges }
  | exception Invalid_argument _ -> g

let of_edges l = List.fold_left (fun g (u, v) -> add_edge g u v) empty l

let nodes g =
  Node.Map.fold (fun u _ acc -> Node.Set.add u acc) g.adj Node.Set.empty

let edges g = g.edges
let num_nodes g = Node.Map.cardinal g.adj
let num_edges g = Edge.Set.cardinal g.edges
let mem_node g u = Node.Map.mem u g.adj

let mem_edge g u v =
  (not (Node.equal u v)) && Edge.Set.mem (Edge.make u v) g.edges

let neighbors g u = Node.Map.find_or ~default:Node.Set.empty u g.adj
let degree g u = Node.Set.cardinal (neighbors g u)

(* The map folds in ascending key order, so the ids are 0..n-1 exactly
   when the i-th key is i. *)
let rows g =
  let rows = Array.make (Node.Map.cardinal g.adj) [||] in
  let fill u nbrs i =
    if u <> i then invalid_arg "Undirected.rows: node ids must be 0..n-1";
    rows.(i) <- Array.of_list (Node.Set.elements nbrs);
    i + 1
  in
  ignore (Node.Map.fold fill g.adj 0);
  rows

let fold_edges f g acc = Edge.Set.fold f g.edges acc
let iter_edges f g = Edge.Set.iter f g.edges

let component_of g start =
  let rec bfs visited frontier =
    if Node.Set.is_empty frontier then visited
    else
      let next =
        Node.Set.fold
          (fun u acc -> Node.Set.union acc (neighbors g u))
          frontier Node.Set.empty
      in
      let next = Node.Set.diff next visited in
      bfs (Node.Set.union visited next) next
  in
  bfs (Node.Set.singleton start) (Node.Set.singleton start)

let connected_components g =
  let rec loop remaining acc =
    match Node.Set.choose_opt remaining with
    | None -> List.rev acc
    | Some u ->
        let comp = component_of g u in
        loop (Node.Set.diff remaining comp) (comp :: acc)
  in
  loop (nodes g) []

let is_connected g = List.length (connected_components g) <= 1
let equal g1 g2 = Node.Map.equal Node.Set.equal g1.adj g2.adj
