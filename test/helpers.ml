(* Shared fixtures and small assertion helpers for the test suite. *)

open Lr_graph
open Linkrev

let rng seed = Random.State.make [| 0xbeef; seed |]

(* A hand-built diamond: 0 -> 1 -> 3, 0 -> 2 -> 3, destination 0.
   Node 3 is the unique initial sink; 1, 2, 3 are all bad. *)
let diamond () =
  Config.make_exn
    (Digraph.of_directed_edges [ (0, 1); (0, 2); (1, 3); (2, 3) ])
    ~destination:0

(* The chain 2 -> 1 -> 0 plus node 3 with no edge at all.  The paper's
   graphs are connected, but [Config.make] and [Serial]'s [node U]
   lines accept isolated nodes. *)
let isolated_node () =
  Config.make_exn
    (Digraph.add_node (Digraph.of_directed_edges [ (1, 0); (2, 1) ]) 3)
    ~destination:0

let bad_chain n = Config.of_instance (Generators.bad_chain n)
let sawtooth n = Config.of_instance (Generators.sawtooth n)

let random_config ?(extra_edges = 8) ~seed n =
  Config.of_instance
    (Generators.random_connected_dag (rng seed) ~n ~extra_edges)

(* Every connected graph on one to five nodes, with every destination:
   every acyclic orientation up to four nodes, the one with each link
   pointing at its lower id ([Edge.lo]) at five. *)
let small_instances () =
  List.concat_map
    (fun n ->
      List.concat_map
        (fun skel ->
          let graphs =
            if n <= 4 then List.filter Digraph.is_acyclic (Generators.all_orientations skel)
            else [ Digraph.orient skel ~toward:Edge.lo ]
          in
          List.concat_map
            (fun g -> List.init n (fun d -> Config.make_exn g ~destination:d))
            graphs)
        (Generators.all_connected_graphs n))
    [ 1; 2; 3; 4; 5 ]

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let node_set_testable =
  Alcotest.testable Node.Set.pp Node.Set.equal

let check_node_set = Alcotest.check node_set_testable

let digraph_testable = Alcotest.testable Digraph.pp Digraph.equal

let run_random ?(seed = 0) ?max_steps automaton =
  Lr_automata.Execution.run ?max_steps
    ~scheduler:(Lr_automata.Scheduler.random (rng seed))
    automaton

let expect_no_violation what = function
  | None -> ()
  | Some v ->
      Alcotest.failf "%s: %a" what Lr_automata.Invariant.pp_violation v

let case name f = Alcotest.test_case name `Quick f

let suite name cases = (name, cases)

(* The service's reference: one shard per config (the service's
   default engine and rule), each op applied to its own shard in stream
   order.  [Stats] never reaches a shard, so its slot is [None]; every
   other slot is what the service must answer when nothing is
   rejected. *)
let sequential configs ops =
  let module Shard = Lr_service.Shard in
  let { Lr_service.Service.engine; rule; _ } =
    Lr_service.Service.default_config
  in
  let shards =
    Array.mapi (fun id config -> Shard.create ~engine ~rule ~id config) configs
  in
  Array.map
    (fun op ->
      match Lr_service.Op.shard_of op with
      | None -> None
      | Some s -> Some (Shard.apply shards.(s) op).Shard.response)
    ops

(* Every response equals the reference's, slot for slot; a [Snapshot]
   must sit exactly where the reference has [None]. *)
let check_matches_sequential what reference responses =
  let module Op = Lr_service.Op in
  check_int (what ^ ": one response per op") (Array.length reference)
    (Array.length responses);
  Array.iteri
    (fun i expected ->
      match (expected, responses.(i)) with
      | None, Op.Snapshot _ -> ()
      | Some r, r' when r = r' -> ()
      | _, r' ->
          Alcotest.failf "%s: op %d answered %s, the reference %s" what i
            (Op.response_to_string r')
            (match expected with
            | None -> "a snapshot"
            | Some r -> Op.response_to_string r))
    reference
