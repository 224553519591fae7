type direction = In | Out

let flip = function In -> Out | Out -> In

let direction_equal a b =
  match (a, b) with In, In | Out, Out -> true | In, Out | Out, In -> false

(* [orient] maps every skeleton edge to [true] when the edge is directed
   from its low endpoint to its high endpoint. *)
type t = { skel : Undirected.t; orient : bool Edge.Map.t }

let check_endpoint e u =
  if not (Edge.incident e u) then invalid_arg "Digraph: node not an endpoint"

let orient skel ~toward =
  let orient =
    Undirected.fold_edges
      (fun e acc ->
        let target = toward e in
        check_endpoint e target;
        Edge.Map.add e (Node.equal target (Edge.hi e)) acc)
      skel Edge.Map.empty
  in
  { skel; orient }

let add_node g u = { g with skel = Undirected.add_node g.skel u }

let add_directed_edge g u v =
  let e = Edge.make u v in
  {
    skel = Undirected.add_edge g.skel u v;
    orient = Edge.Map.add e (Node.equal v (Edge.hi e)) g.orient;
  }

let of_directed_edges l =
  List.fold_left
    (fun g (u, v) -> add_directed_edge g u v)
    { skel = Undirected.empty; orient = Edge.Map.empty }
    l

let remove_edge g u v =
  if not (Undirected.mem_edge g.skel u v) then g
  else
    {
      skel = Undirected.remove_edge g.skel u v;
      orient = Edge.Map.remove (Edge.make u v) g.orient;
    }

let isolate g u =
  Node.Set.fold (fun v g -> remove_edge g u v) (Undirected.neighbors g.skel u) g

let skeleton g = g.skel
let nodes g = Undirected.nodes g.skel
let num_nodes g = Undirected.num_nodes g.skel
let num_edges g = Undirected.num_edges g.skel
let mem_edge g u v = Undirected.mem_edge g.skel u v
let neighbors g u = Undirected.neighbors g.skel u

let edge_target g e =
  match Edge.Map.find_opt e g.orient with
  | Some toward_hi -> if toward_hi then Edge.hi e else Edge.lo e
  | None -> invalid_arg "Digraph.edge_target: not an edge"

let dir g u v =
  if Node.equal u v || not (mem_edge g u v) then
    invalid_arg "Digraph.dir: not an edge"
  else
    let e = Edge.make u v in
    if Node.equal (edge_target g e) v then Out else In

let out_neighbors g u =
  Node.Set.filter (fun v -> direction_equal (dir g u v) Out) (neighbors g u)

let in_neighbors g u =
  Node.Set.filter (fun v -> direction_equal (dir g u v) In) (neighbors g u)

let in_degree g u = Node.Set.cardinal (in_neighbors g u)
let out_degree g u = Node.Set.cardinal (out_neighbors g u)

let is_sink g u =
  let nbrs = neighbors g u in
  (not (Node.Set.is_empty nbrs))
  && Node.Set.for_all (fun v -> direction_equal (dir g u v) In) nbrs

let is_source g u =
  let nbrs = neighbors g u in
  (not (Node.Set.is_empty nbrs))
  && Node.Set.for_all (fun v -> direction_equal (dir g u v) Out) nbrs

let sinks g = Node.Set.filter (is_sink g) (nodes g)
let sources g = Node.Set.filter (is_source g) (nodes g)

let directed_edges g =
  Undirected.fold_edges
    (fun e acc ->
      let target = edge_target g e in
      (Edge.other e target, target) :: acc)
    g.skel []
  |> List.rev

let set_dir g u v d =
  if not (mem_edge g u v) then invalid_arg "Digraph.set_dir: not an edge"
  else
    let e = Edge.make u v in
    let target = match d with Out -> v | In -> u in
    { g with orient = Edge.Map.add e (Node.equal target (Edge.hi e)) g.orient }

let reverse_edge g u v = set_dir g u v (flip (dir g u v))

let reverse_toward g u ws =
  Node.Set.fold (fun w acc -> set_dir acc u w Out) ws g

let reverse_all_at g u = reverse_toward g u (neighbors g u)

(* Kahn's algorithm; [None] on a cycle. *)
let topological_sort g =
  let indeg =
    Node.Set.fold (fun u m -> Node.Map.add u (in_degree g u) m) (nodes g)
      Node.Map.empty
  in
  let initial =
    Node.Map.fold (fun u d acc -> if d = 0 then u :: acc else acc) indeg []
  in
  let rec loop indeg queue acc count =
    match queue with
    | [] -> if count = num_nodes g then Some (List.rev acc) else None
    | u :: rest ->
        let indeg, queue =
          Node.Set.fold
            (fun v (indeg, queue) ->
              let d = Node.Map.find v indeg - 1 in
              (Node.Map.add v d indeg, if d = 0 then v :: queue else queue))
            (out_neighbors g u) (indeg, rest)
        in
        loop indeg queue (u :: acc) (count + 1)
  in
  loop indeg initial [] 0

let is_acyclic g = Option.is_some (topological_sort g)

(* DFS with colors; returns a directed cycle when one exists. *)
let find_cycle g =
  let color = Hashtbl.create 16 in
  let get u = Option.value ~default:`White (Hashtbl.find_opt color u) in
  let exception Found of Node.t list in
  let rec visit path u =
    Hashtbl.replace color u `Gray;
    Node.Set.iter
      (fun v ->
        match get v with
        | `White -> visit (v :: path) v
        | `Gray ->
            (* [path] is [u; ...]; the cycle is the prefix up to [v]. *)
            let rec take acc = function
              | [] -> acc
              | x :: _ when Node.equal x v -> x :: acc
              | x :: rest -> take (x :: acc) rest
            in
            raise (Found (take [] path))
        | `Black -> ())
      (out_neighbors g u);
    Hashtbl.replace color u `Black
  in
  try
    Node.Set.iter
      (fun u -> match get u with `White -> visit [ u ] u | `Gray | `Black -> ())
      (nodes g);
    None
  with Found cycle -> Some cycle

let reaches g d =
  if not (Undirected.mem_node g.skel d) then Node.Set.empty
  else
    let rec bfs visited frontier =
      if Node.Set.is_empty frontier then visited
      else
        let next =
          Node.Set.fold
            (fun u acc -> Node.Set.union acc (in_neighbors g u))
            frontier Node.Set.empty
        in
        let next = Node.Set.diff next visited in
        bfs (Node.Set.union visited next) next
    in
    bfs (Node.Set.singleton d) (Node.Set.singleton d)

let has_path g u v =
  let rec bfs visited frontier =
    if Node.Set.mem v visited then true
    else if Node.Set.is_empty frontier then false
    else
      let next =
        Node.Set.fold
          (fun w acc -> Node.Set.union acc (out_neighbors g w))
          frontier Node.Set.empty
      in
      let next = Node.Set.diff next visited in
      bfs (Node.Set.union visited next) next
  in
  bfs (Node.Set.singleton u) (Node.Set.singleton u)

let bad_nodes g d = Node.Set.diff (nodes g) (reaches g d)
let is_destination_oriented g d = Node.Set.is_empty (bad_nodes g d)

let compare g1 g2 =
  match
    Edge.Set.compare (Undirected.edges g1.skel) (Undirected.edges g2.skel)
  with
  | 0 -> (
      match
        Node.Set.compare (Undirected.nodes g1.skel) (Undirected.nodes g2.skel)
      with
      | 0 -> Edge.Map.compare Bool.compare g1.orient g2.orient
      | c -> c)
  | c -> c

let equal g1 g2 = compare g1 g2 = 0

let orientation_bits g =
  let m = Edge.Map.cardinal g.orient in
  let words = Array.make (((m + 62) / 63) + 1) 0 in
  words.(0) <- m;
  let i = ref 0 in
  Edge.Map.iter
    (fun _ toward_hi ->
      if toward_hi then begin
        let w = 1 + (!i / 63) in
        words.(w) <- words.(w) lor (1 lsl (!i mod 63))
      end;
      incr i)
    g.orient;
  words

(* FNV-1a, 64-bit.  The feed — every node id in ascending order, then
   every skeleton edge as (lo, hi, oriented-low-to-high) in canonical
   edge order — is shared with [Lr_fast.Fast_graph.fingerprint], which
   computes the same value from flat arrays without building a
   [Digraph]; trace files use it to bind a recording to its instance. *)
let fnv_prime = 0x100000001b3L
let fnv_offset = 0xcbf29ce484222325L

let fnv_mix h x =
  Int64.mul (Int64.logxor h (Int64.of_int x)) fnv_prime

let fingerprint g =
  let h = Node.Set.fold (fun u h -> fnv_mix h u) (nodes g) fnv_offset in
  Edge.Map.fold
    (fun e toward_hi h ->
      fnv_mix (fnv_mix (fnv_mix h (Edge.lo e)) (Edge.hi e))
        (if toward_hi then 1 else 0))
    g.orient h

let canonical_key g =
  let buf = Buffer.create 128 in
  Node.Set.iter (fun u -> Buffer.add_string buf (Printf.sprintf "n%d;" u))
    (nodes g);
  Edge.Map.iter
    (fun e toward_hi ->
      Buffer.add_string buf
        (Printf.sprintf "e%d,%d,%b;" (Edge.lo e) (Edge.hi e) toward_hi))
    g.orient;
  Buffer.contents buf

let pp ppf g =
  let pp_edge ppf (u, v) = Format.fprintf ppf "%a->%a" Node.pp u Node.pp v in
  Format.fprintf ppf "@[<v>nodes: %a@,edges: @[%a@]@]" Node.Set.pp (nodes g)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       pp_edge)
    (directed_edges g)
