open Lr_graph
open Helpers

let path4 () = Undirected.of_edges [ (0, 1); (1, 2); (2, 3) ]

let test_empty () =
  check_int "no nodes" 0 (Undirected.num_nodes Undirected.empty);
  check_int "no edges" 0 (Undirected.num_edges Undirected.empty)

let test_add_node () =
  let g = Undirected.add_node Undirected.empty 7 in
  check_bool "mem" true (Undirected.mem_node g 7);
  check_int "idempotent"
    (Undirected.num_nodes g)
    (Undirected.num_nodes (Undirected.add_node g 7))

let test_add_edge () =
  let g = path4 () in
  check_int "nodes" 4 (Undirected.num_nodes g);
  check_int "edges" 3 (Undirected.num_edges g);
  check_bool "mem both ways" true
    (Undirected.mem_edge g 1 0 && Undirected.mem_edge g 0 1)

let test_add_edge_idempotent () =
  let g = Undirected.add_edge (path4 ()) 0 1 in
  check_int "still 3 edges" 3 (Undirected.num_edges g)

let test_neighbors () =
  let g = path4 () in
  check_node_set "middle node" (Node.Set.of_list [ 0; 2 ])
    (Undirected.neighbors g 1);
  check_node_set "endpoint" (Node.Set.singleton 1) (Undirected.neighbors g 0);
  check_node_set "unknown node" Node.Set.empty (Undirected.neighbors g 99)

let test_degree () =
  let g = path4 () in
  check_int "endpoint degree" 1 (Undirected.degree g 0);
  check_int "middle degree" 2 (Undirected.degree g 2)

let test_remove_edge () =
  let g = Undirected.remove_edge (path4 ()) 1 2 in
  check_int "edges" 2 (Undirected.num_edges g);
  check_bool "edge gone" false (Undirected.mem_edge g 1 2);
  check_bool "nodes stay" true (Undirected.mem_node g 1 && Undirected.mem_node g 2);
  check_int "removing absent edge is a no-op" 2
    (Undirected.num_edges (Undirected.remove_edge g 0 3))

let test_connected () =
  check_bool "path connected" true (Undirected.is_connected (path4 ()));
  let split = Undirected.of_edges [ (0, 1); (2, 3) ] in
  check_bool "two components" false (Undirected.is_connected split);
  check_int "component count" 2
    (List.length (Undirected.connected_components split));
  check_bool "empty graph connected" true (Undirected.is_connected Undirected.empty)

let test_components_partition_nodes () =
  let g = Undirected.of_edges [ (0, 1); (2, 3); (3, 4) ] in
  let comps = Undirected.connected_components g in
  let union = List.fold_left Node.Set.union Node.Set.empty comps in
  check_node_set "union is node set" (Undirected.nodes g) union;
  check_int "sizes" 2 (List.length comps)

let test_fold_edges () =
  let total = Undirected.fold_edges (fun _ acc -> acc + 1) (path4 ()) 0 in
  check_int "fold visits all edges" 3 total

let test_equal () =
  check_bool "structural equality" true
    (Undirected.equal (path4 ()) (Undirected.of_edges [ (2, 3); (0, 1); (1, 2) ]));
  check_bool "different" false
    (Undirected.equal (path4 ()) (Undirected.of_edges [ (0, 1) ]))

(* [rows] is the sorted neighbour sets as arrays, one per id. *)
let check_rows what g =
  let rows = Undirected.rows g in
  check_int (what ^ ": one row per node") (Undirected.num_nodes g) (Array.length rows);
  Array.iteri
    (fun u row ->
      Alcotest.(check (list int))
        (Printf.sprintf "%s: row %d" what u)
        (Node.Set.elements (Undirected.neighbors g u))
        (Array.to_list row))
    rows

let test_rows () =
  for seed = 0 to 19 do
    let inst =
      Generators.random_connected_dag (rng seed) ~n:(5 + (7 * seed)) ~extra_edges:(seed mod 9)
    in
    check_rows (Printf.sprintf "random seed %d" seed) (Digraph.skeleton inst.Generators.graph)
  done;
  List.iteri
    (fun i config ->
      check_rows (Printf.sprintf "small instance %d" i)
        (Digraph.skeleton config.Linkrev.Config.initial))
    (small_instances ());
  let g = Undirected.add_node (Undirected.of_edges [ (0, 1) ]) 2 in
  check_int "isolated node has an empty row" 0 (Array.length (Undirected.rows g).(2));
  let rejected g =
    match Undirected.rows g with _ -> false | exception Invalid_argument _ -> true
  in
  check_bool "ids {0, 2} rejected" true (rejected (Undirected.of_edges [ (0, 2) ]));
  check_bool "negative id rejected" true (rejected (Undirected.of_edges [ (-1, 0) ]));
  check_bool "ids {0, 1} accepted" false (rejected (Undirected.of_edges [ (0, 1) ]))

let () =
  Alcotest.run "undirected"
    [
      suite "undirected"
        [
          case "empty graph" test_empty;
          case "add_node" test_add_node;
          case "add_edge adds endpoints" test_add_edge;
          case "add_edge is idempotent" test_add_edge_idempotent;
          case "neighbors" test_neighbors;
          case "degree" test_degree;
          case "remove_edge" test_remove_edge;
          case "connectivity" test_connected;
          case "components partition the nodes" test_components_partition_nodes;
          case "fold_edges" test_fold_edges;
          case "equal ignores insertion order" test_equal;
          case "rows are the sorted neighbour sets" test_rows;
        ];
    ]
