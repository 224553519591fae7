open Lr_graph
open Helpers

let test_compare () =
  check_bool "lt" true (Node.compare 1 2 < 0);
  check_bool "eq" true (Node.compare 5 5 = 0);
  check_bool "gt" true (Node.compare 9 2 > 0)

let test_equal () =
  check_bool "equal" true (Node.equal 3 3);
  check_bool "not equal" false (Node.equal 3 4)

let test_to_string () =
  Alcotest.(check string) "to_string" "42" (Node.to_string 42)

let test_set_pp () =
  let s = Format.asprintf "%a" Node.Set.pp (Node.Set.of_list [ 3; 1; 2 ]) in
  Alcotest.(check string) "sorted render" "{1, 2, 3}" s

let test_map_find_or () =
  let m = Node.Map.add 1 "a" Node.Map.empty in
  Alcotest.(check string) "bound" "a" (Node.Map.find_or ~default:"z" 1 m);
  Alcotest.(check string) "unbound" "z" (Node.Map.find_or ~default:"z" 2 m)

let test_map_pp () =
  let m = Node.Map.add 2 9 (Node.Map.add 1 7 Node.Map.empty) in
  let s = Format.asprintf "%a" (Node.Map.pp Format.pp_print_int) m in
  Alcotest.(check string) "render" "{1 -> 7; 2 -> 9}" s

let () =
  Alcotest.run "node"
    [
      suite "node"
        [
          case "compare orders integers" test_compare;
          case "equal" test_equal;
          case "to_string" test_to_string;
          case "Set.pp renders sorted" test_set_pp;
          case "Map.find_or" test_map_find_or;
          case "Map.pp" test_map_pp;
        ];
    ]
