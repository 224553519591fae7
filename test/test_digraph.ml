open Lr_graph
open Helpers

(* 0 -> 1 -> 2, 0 -> 2 : a small DAG with source 0 and sink 2. *)
let triangle () = Digraph.of_directed_edges [ (0, 1); (1, 2); (0, 2) ]

let test_of_directed_edges () =
  let g = triangle () in
  check_int "nodes" 3 (Digraph.num_nodes g);
  check_int "edges" 3 (Digraph.num_edges g);
  check_bool "dir 0 1" true (Digraph.dir g 0 1 = Digraph.Out);
  check_bool "dir 1 0" true (Digraph.dir g 1 0 = Digraph.In)

let test_dir_raises_on_non_edge () =
  Alcotest.check_raises "no edge" (Invalid_argument "Digraph.dir: not an edge")
    (fun () -> ignore (Digraph.dir (triangle ()) 0 0))

let test_in_out_neighbors () =
  let g = triangle () in
  check_node_set "out of 0" (Node.Set.of_list [ 1; 2 ]) (Digraph.out_neighbors g 0);
  check_node_set "in of 2" (Node.Set.of_list [ 0; 1 ]) (Digraph.in_neighbors g 2);
  check_int "in degree" 2 (Digraph.in_degree g 2);
  check_int "out degree" 2 (Digraph.out_degree g 0)

let test_sinks_sources () =
  let g = triangle () in
  check_node_set "sinks" (Node.Set.singleton 2) (Digraph.sinks g);
  check_node_set "sources" (Node.Set.singleton 0) (Digraph.sources g);
  check_bool "2 is sink" true (Digraph.is_sink g 2);
  check_bool "1 is not sink" false (Digraph.is_sink g 1)

let test_isolated_node_is_not_a_sink () =
  let g = Digraph.add_node (triangle ()) 9 in
  check_bool "isolated not sink" false (Digraph.is_sink g 9);
  check_bool "isolated not source" false (Digraph.is_source g 9)

let test_reverse_edge () =
  let g = Digraph.reverse_edge (triangle ()) 1 2 in
  check_bool "flipped" true (Digraph.dir g 1 2 = Digraph.In);
  check_bool "other edges untouched" true (Digraph.dir g 0 1 = Digraph.Out)

let test_reverse_all_at () =
  let g = Digraph.reverse_all_at (triangle ()) 2 in
  check_node_set "2 now a source" (Node.Set.of_list [ 0; 1 ])
    (Digraph.out_neighbors g 2);
  check_bool "2 is source" true (Digraph.is_source g 2)

let test_reverse_toward () =
  let g = Digraph.reverse_toward (triangle ()) 2 (Node.Set.singleton 1) in
  check_bool "2 -> 1" true (Digraph.dir g 2 1 = Digraph.Out);
  check_bool "0 -> 2 untouched" true (Digraph.dir g 0 2 = Digraph.Out)

let test_acyclic_and_topo () =
  let g = triangle () in
  check_bool "acyclic" true (Digraph.is_acyclic g);
  match Digraph.topological_sort g with
  | None -> Alcotest.fail "expected a topological order"
  | Some order ->
      check_int "all nodes" 3 (List.length order);
      (* every edge respects the order *)
      let pos u = Option.get (List.find_index (Node.equal u) order) in
      List.iter
        (fun (u, v) ->
          check_bool "edge respects order" true (pos u < pos v))
        (Digraph.directed_edges g)

let test_cycle_detection () =
  let g = Digraph.of_directed_edges [ (0, 1); (1, 2); (2, 0) ] in
  check_bool "cyclic" false (Digraph.is_acyclic g);
  match Digraph.find_cycle g with
  | None -> Alcotest.fail "expected a cycle"
  | Some cycle ->
      check_int "triangle cycle" 3 (List.length cycle);
      (* consecutive cycle nodes are connected in the right direction *)
      let rec pairs = function
        | a :: (b :: _ as rest) -> (a, b) :: pairs rest
        | [ _ ] | [] -> []
      in
      let closing =
        match (cycle, List.rev cycle) with
        | first :: _, last :: _ -> [ (last, first) ]
        | _ -> []
      in
      List.iter
        (fun (a, b) ->
          check_bool "cycle edge direction" true (Digraph.dir g a b = Digraph.Out))
        (pairs cycle @ closing)

let test_reaches () =
  let g = Digraph.of_directed_edges [ (1, 0); (2, 1); (3, 4) ] in
  check_node_set "reaches 0" (Node.Set.of_list [ 0; 1; 2 ]) (Digraph.reaches g 0);
  check_node_set "bad nodes" (Node.Set.of_list [ 3; 4 ]) (Digraph.bad_nodes g 0);
  check_bool "not oriented" false (Digraph.is_destination_oriented g 0)

let test_has_path () =
  let g = triangle () in
  check_bool "0 to 2" true (Digraph.has_path g 0 2);
  check_bool "2 to 0" false (Digraph.has_path g 2 0);
  check_bool "self" true (Digraph.has_path g 1 1)

let test_destination_oriented () =
  let g = Digraph.of_directed_edges [ (1, 0); (2, 1); (3, 1) ] in
  check_bool "oriented" true (Digraph.is_destination_oriented g 0)

let test_equal_and_key () =
  let g1 = triangle () in
  let g2 = Digraph.of_directed_edges [ (0, 2); (1, 2); (0, 1) ] in
  Alcotest.check digraph_testable "same digraph" g1 g2;
  Alcotest.(check string) "same key" (Digraph.canonical_key g1)
    (Digraph.canonical_key g2);
  let g3 = Digraph.reverse_edge g1 0 1 in
  check_bool "different key" false
    (String.equal (Digraph.canonical_key g1) (Digraph.canonical_key g3))

let test_orient () =
  let skel = Undirected.of_edges [ (0, 1); (1, 2) ] in
  let g = Digraph.orient skel ~toward:Edge.lo in
  check_bool "1 -> 0" true (Digraph.dir g 1 0 = Digraph.Out);
  check_bool "2 -> 1" true (Digraph.dir g 2 1 = Digraph.Out)

let test_add_remove_edge () =
  let g = Digraph.remove_edge (triangle ()) 0 2 in
  check_int "edge removed" 2 (Digraph.num_edges g);
  let g = Digraph.add_directed_edge g 2 0 in
  check_bool "re-added reversed" true (Digraph.dir g 2 0 = Digraph.Out)

let test_isolate () =
  let g = Digraph.isolate (triangle ()) 1 in
  check_int "one edge left" 1 (Digraph.num_edges g);
  check_int "node stays" 3 (Digraph.num_nodes g);
  check_bool "0 -> 2 kept" true (Digraph.dir g 0 2 = Digraph.Out);
  check_bool "isolated" true (Node.Set.is_empty (Digraph.neighbors g 1));
  check_bool "idempotent" true (Digraph.equal g (Digraph.isolate g 1))

let test_edge_target () =
  let g = triangle () in
  check_int "target of {0,1}" 1 (Digraph.edge_target g (Edge.make 0 1))

let test_reverse_toward_empty_is_noop () =
  let g = triangle () in
  Alcotest.check digraph_testable "no-op" g
    (Digraph.reverse_toward g 2 Node.Set.empty)

let test_set_dir_rejects_non_edges () =
  Alcotest.check_raises "set_dir" (Invalid_argument "Digraph.set_dir: not an edge")
    (fun () -> ignore (Digraph.set_dir (triangle ()) 0 9 Digraph.Out))

let test_reaches_missing_node () =
  check_node_set "empty for unknown destination" Node.Set.empty
    (Digraph.reaches (triangle ()) 42)

let test_double_reversal_roundtrips () =
  let g = triangle () in
  let g2 = Digraph.reverse_edge (Digraph.reverse_edge g 0 1) 0 1 in
  Alcotest.check digraph_testable "involution" g g2

let test_topo_on_singleton_and_empty () =
  let empty = Digraph.of_directed_edges [] in
  Alcotest.(check (option (list int))) "empty graph" (Some [])
    (Digraph.topological_sort empty);
  let single = Digraph.add_node empty 3 in
  Alcotest.(check (option (list int))) "isolated node" (Some [ 3 ])
    (Digraph.topological_sort single)

let test_large_chain_operations () =
  (* stack-safety and scaling smoke: 20k-node chain *)
  let n = 20_000 in
  let inst = Lr_graph.Generators.bad_chain n in
  let g = inst.Lr_graph.Generators.graph in
  check_bool "acyclic" true (Digraph.is_acyclic g);
  check_int "reaches destination" 1
    (Node.Set.cardinal (Digraph.reaches g 0));
  check_node_set "single sink at the end" (Node.Set.singleton (n - 1))
    (Digraph.sinks g)

let () =
  Alcotest.run "digraph"
    [
      suite "digraph"
        [
          case "of_directed_edges" test_of_directed_edges;
          case "dir raises on non-edges" test_dir_raises_on_non_edge;
          case "in/out neighbors" test_in_out_neighbors;
          case "sinks and sources" test_sinks_sources;
          case "isolated nodes are never sinks" test_isolated_node_is_not_a_sink;
          case "reverse_edge" test_reverse_edge;
          case "reverse_all_at makes a source" test_reverse_all_at;
          case "reverse_toward" test_reverse_toward;
          case "topological sort respects edges" test_acyclic_and_topo;
          case "find_cycle returns a real cycle" test_cycle_detection;
          case "reaches / bad_nodes" test_reaches;
          case "has_path" test_has_path;
          case "destination orientation" test_destination_oriented;
          case "equality and canonical keys" test_equal_and_key;
          case "orient over a skeleton" test_orient;
          case "add/remove edges" test_add_remove_edge;
          case "isolate drops a node's edges" test_isolate;
          case "edge_target" test_edge_target;
          case "reverse_toward {} is a no-op" test_reverse_toward_empty_is_noop;
          case "set_dir rejects non-edges" test_set_dir_rejects_non_edges;
          case "reaches of a missing node" test_reaches_missing_node;
          case "double reversal round-trips" test_double_reversal_roundtrips;
          case "topological sort corner cases" test_topo_on_singleton_and_empty;
          case "20k-node chain operations" test_large_chain_operations;
        ];
    ]
