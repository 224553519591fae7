open Lr_graph
open Lr_service

type t =
  | Corrupt_heights of { shard : int; seed : int; magnitude : int }
  | Flip_route_bit of { shard : int; node : int; bit : int }
  | Partition of { shard : int; seed : int }
  | Heal_partition of { shard : int; seed : int }
  | Crash_burst of { shard : int; count : int }
  | Poison_queue of { shard : int; src : int; count : int }

let shard_of = function
  | Corrupt_heights { shard; _ }
  | Flip_route_bit { shard; _ }
  | Partition { shard; _ }
  | Heal_partition { shard; _ }
  | Crash_burst { shard; _ }
  | Poison_queue { shard; _ } ->
      shard

(* The deterministic component cut behind [Partition]/[Heal_partition]:
   a BFS ball of ~n/4 nodes grown from a seeded pivot, and the edge
   set crossing its boundary.  Both endpoints iterate in ascending id
   order, so the list is a pure function of (graph, seed) — the heal
   fault re-derives exactly the edges its partition tore down. *)
let cut graph ~seed =
  let nodes = Digraph.nodes graph in
  let n = Node.Set.cardinal nodes in
  if n < 2 then []
  else begin
    let ids = Array.of_list (Node.Set.elements nodes) in
    let pivot = ids.((((seed mod n) + n) mod n)) in
    let target = Stdlib.max 1 (n / 4) in
    let in_ball = Hashtbl.create 16 in
    let q = Queue.create () in
    Hashtbl.replace in_ball pivot ();
    Queue.add pivot q;
    let count = ref 1 in
    while (not (Queue.is_empty q)) && !count < target do
      let u = Queue.pop q in
      Node.Set.iter
        (fun w ->
          if !count < target && not (Hashtbl.mem in_ball w) then begin
            Hashtbl.replace in_ball w ();
            incr count;
            Queue.add w q
          end)
        (Digraph.neighbors graph u)
    done;
    let edges = ref [] in
    Node.Set.iter
      (fun u ->
        if Hashtbl.mem in_ball u then
          Node.Set.iter
            (fun w ->
              if not (Hashtbl.mem in_ball w) then edges := (u, w) :: !edges)
            (Digraph.neighbors graph u))
      nodes;
    List.rev !edges
  end

let compile ~graphs fault =
  let graph_of shard =
    if shard < 0 || shard >= Array.length graphs then
      invalid_arg "Fault.compile: shard out of range";
    graphs.(shard)
  in
  match fault with
  | Corrupt_heights { shard; seed; magnitude } ->
      [ Op.Corrupt { shard; seed; magnitude } ]
  | Flip_route_bit { shard; node; bit } -> [ Op.Flip { shard; node; bit } ]
  | Partition { shard; seed } ->
      List.map
        (fun (u, v) -> Op.Link_down { shard; u; v })
        (cut (graph_of shard) ~seed)
  | Heal_partition { shard; seed } ->
      List.map
        (fun (u, v) -> Op.Link_up { shard; u; v })
        (cut (graph_of shard) ~seed)
  | Crash_burst { shard; count } ->
      List.init (Stdlib.max 0 count) (fun _ -> Op.Crash_destination { shard })
  | Poison_queue { shard; src; count } ->
      [ Op.Inject { shard; src; count }; Op.Forward { shard; slots = count } ]
