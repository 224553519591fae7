open Lr_graph
open Linkrev
open Helpers
module F = Lr_fast.Fast_engine

let persistent_outcome rule config =
  let run algo =
    Executor.run ~scheduler:(Lr_automata.Scheduler.first ())
      ~destination:config.Config.destination algo
  in
  match rule with
  | F.Partial -> run (One_step_pr.algo config)
  | F.Full -> run (Full_reversal.algo config)
  | F.New_pr -> run (New_pr.algo config)

let differential rule config =
  let slow = persistent_outcome rule config in
  let engine = F.of_config rule config in
  let fast = F.run engine in
  check_int "same total work" slow.Executor.total_node_steps fast.F.work;
  check_int "same edge reversals" slow.Executor.edge_reversals
    fast.F.edge_reversals;
  check_bool "both oriented" true
    (Bool.equal slow.Executor.destination_oriented fast.F.destination_oriented);
  (* per-node steps agree (work is schedule independent) *)
  Node.Set.iter
    (fun u ->
      check_int
        (Printf.sprintf "steps of node %d" u)
        (Node.Map.find_or ~default:0 u slow.Executor.node_steps)
        fast.F.steps_per_node.(u))
    (Config.nodes config);
  (* final orientations agree (confluence: quiescent graph is unique) *)
  Alcotest.check digraph_testable "same final graph"
    slow.Executor.final_graph (F.to_digraph engine)

let test_differential_pr_random () =
  for seed = 0 to 14 do
    differential F.Partial (random_config ~seed 20)
  done

let test_differential_fr_random () =
  for seed = 0 to 14 do
    differential F.Full (random_config ~seed 20)
  done

let test_differential_families () =
  List.iter
    (fun config ->
      differential F.Partial config;
      differential F.Full config)
    [
      diamond ();
      bad_chain 12;
      sawtooth 12;
      Config.of_instance (Generators.grid ~rows:3 ~cols:4);
      Config.of_instance (Generators.star ~center:0 ~leaves:6 ~inward:false);
      Config.of_instance (Generators.binary_tree ~depth:3);
    ]

let test_exact_work_formulas () =
  let work rule inst = (F.run (F.create rule inst)).F.work in
  check_int "PR sawtooth (n/2)^2" 256 (work F.Partial (Generators.sawtooth 32));
  check_int "PR bad chain n-1" 31 (work F.Partial (Generators.bad_chain 32));
  check_int "FR bad chain triangular" (31 * 32 / 2)
    (work F.Full (Generators.bad_chain 32))

let test_large_instances () =
  (* The point of the engine: sizes the persistent executor would chew
     on for a long time. *)
  let inst = Generators.sawtooth 2000 in
  let out = F.run (F.create F.Partial inst) in
  check_int "10^6 steps" (1000 * 1000) out.F.work;
  check_bool "oriented" true out.F.destination_oriented;
  let rng_ = rng 5 in
  let big = Generators.random_connected_dag rng_ ~n:50_000 ~extra_edges:25_000 in
  let out = F.run (F.create F.Partial big) in
  check_bool "50k-node graph oriented" true out.F.destination_oriented;
  check_bool "quiescent" true out.F.quiescent

let test_max_steps_resume () =
  let engine = F.create F.Full (Generators.bad_chain 50) in
  let partial = F.run ~max_steps:10 engine in
  check_bool "not quiescent" false partial.F.quiescent;
  check_int "ten steps" 10 partial.F.work;
  let rest = F.run engine in
  check_bool "resumed to quiescence" true rest.F.quiescent;
  check_int "total work is the full triangular number" (49 * 50 / 2) rest.F.work

let test_rejects_sparse_ids () =
  let g = Digraph.of_directed_edges [ (0, 5) ] in
  check_bool "raises" true
    (try ignore (F.create F.Partial { Generators.graph = g; destination = 0 }); false
     with Invalid_argument _ -> true)

let test_already_oriented_no_work () =
  let out = F.run (F.create F.Partial (Generators.good_chain 100)) in
  check_int "zero work" 0 out.F.work;
  check_bool "oriented" true out.F.destination_oriented

(* [of_rows] is [of_instance] without the persistent graph: the same
   adjacency, mirrors and orientation from the same sorted rows, and a
   typed rejection of rows that would corrupt the mirror slots.
   [Dyn.of_rows] adopts the same rows into the same dynamic adjacency
   [Dyn.of_graph] copies, and rejects the same malformed rows. *)
let test_of_rows () =
  let module G = Lr_fast.Fast_graph in
  let config = random_config ~seed:17 12 in
  let g = config.Config.initial in
  let want = G.of_config config in
  let rows = Array.map Array.copy want.G.nbrs in
  let got =
    G.of_rows ~destination:config.Config.destination
      ~out:(fun u w -> Digraph.direction_equal (Digraph.dir g u w) Digraph.Out)
      rows
  in
  check_bool "same rows" true (got.G.nbrs = want.G.nbrs);
  check_bool "same mirrors" true (got.G.mirror = want.G.mirror);
  check_bool "same orientation" true (got.G.out0 = want.G.out0);
  let dyn = G.Dyn.of_rows (Array.map Array.copy want.G.nbrs)
  and copy = G.Dyn.of_graph want in
  check_int "dyn: same size" (G.Dyn.num_nodes copy) (G.Dyn.num_nodes dyn);
  for u = 0 to want.G.n - 1 do
    let d = G.Dyn.degree copy u in
    check_int "dyn: same degree" d (G.Dyn.degree dyn u);
    check_bool "dyn: same row" true
      (Array.sub (G.Dyn.row copy u) 0 d = Array.sub (G.Dyn.row dyn u) 0 d)
  done;
  let rejected build rows =
    match build rows with () -> false | exception Invalid_argument _ -> true
  in
  let rejects rows =
    let by_graph = rejected (fun r -> ignore (G.of_rows ~destination:0 ~out:(fun u w -> u < w) r))
    and by_dyn = rejected (fun r -> ignore (G.Dyn.of_rows r)) in
    check_bool "Dyn.of_rows rejects what of_rows rejects" (by_graph (Array.map Array.copy rows))
      (by_dyn rows);
    by_graph rows
  in
  check_bool "unsorted row rejected" true (rejects [| [| 2; 1 |]; [| 0 |]; [| 0 |] |]);
  check_bool "asymmetric rows rejected" true (rejects [| [| 1 |]; [||] |]);
  check_bool "self-loop rejected" true (rejects [| [| 0 |] |]);
  check_bool "out-of-range id rejected" true (rejects [| [| 5 |] |]);
  check_bool "negative id rejected" true (rejects [| [| -1 |] |]);
  check_bool "well-formed rows accepted" false (rejects [| [| 1; 2 |]; [| 0 |]; [| 0 |] |])

let () =
  Alcotest.run "fast_engine"
    [
      suite "differential"
        [
          case "PR matches persistent on random DAGs" test_differential_pr_random;
          case "FR matches persistent on random DAGs" test_differential_fr_random;
          case "both match on named families" test_differential_families;
          case "exact work formulas" test_exact_work_formulas;
        ];
      suite "engine"
        [
          case "large instances (10^6 steps, 50k nodes)" test_large_instances;
          case "max_steps pause and resume" test_max_steps_resume;
          case "sparse node ids rejected" test_rejects_sparse_ids;
          case "oriented instances need no work" test_already_oriented_no_work;
          case "of_rows builds what of_instance builds" test_of_rows;
        ];
    ]
