(* Differential tests of the fast maintenance engine against the
   persistent reference: identical work, heights order, orientation,
   routes and partition reports under seeded churn — plus the next-hop
   cache contract (hits when quiescent, invalidation on churn, never a
   stale path; staleness is also recomputed inside [FM.consistent]). *)

open Lr_graph
open Linkrev
open Helpers
module M = Lr_routing.Maintenance
module FM = Lr_routing.Fast_maintenance

type sys = { m : M.t; f : FM.t; n : int }

let make rule config =
  {
    m = M.create rule config;
    f = FM.create rule config;
    n = Digraph.num_nodes config.Config.initial;
  }

let route_testable = Alcotest.(option (list int))

let dest_component m =
  List.find (Node.Set.mem (M.destination m))
    (Undirected.connected_components (Digraph.skeleton (M.graph m)))

(* Full-state agreement: work, orientation, heights, routes, and the
   union-find's membership answers against the reference's destination
   component.  Every reversal strictly raises its node's height, so
   equal heights after every op also mean the same nodes stepped. *)
let agree what sys =
  check_int (what ^ ": total work") (M.total_work sys.m) (FM.total_work sys.f);
  let comp = dest_component sys.m in
  check_int (what ^ ": component size") (Node.Set.cardinal comp) (FM.component_size sys.f);
  check_bool (what ^ ": unknown node is no member") false
    (FM.in_dest_component sys.f sys.n);
  Alcotest.check digraph_testable
    (what ^ ": oriented graph")
    (M.graph sys.m) (FM.graph sys.f);
  for u = 0 to sys.n - 1 do
    Alcotest.(check (pair int int))
      (Printf.sprintf "%s: height of %d" what u)
      (M.height_pair sys.m u) (FM.height sys.f u);
    for v = 0 to sys.n - 1 do
      if u <> v then
        check_int
          (Printf.sprintf "%s: height order %d/%d" what u v)
          (compare (M.compare_heights sys.m u v) 0)
          (compare (FM.compare_heights sys.f u v) 0)
    done;
    Alcotest.check route_testable
      (Printf.sprintf "%s: route from %d" what u)
      (M.route sys.m u) (FM.route sys.f u);
    check_bool
      (Printf.sprintf "%s: membership of %d" what u)
      (Node.Set.mem u comp) (FM.in_dest_component sys.f u)
  done;
  check_bool
    (what ^ ": destination oriented")
    (M.is_destination_oriented sys.m)
    (FM.is_destination_oriented sys.f);
  check_bool (what ^ ": fast internals consistent") true (FM.consistent sys.f)

let check_result what rm rf =
  match (rm, rf) with
  | M.Stabilized { node_steps = s1 }, M.Stabilized { node_steps = s2 } ->
      check_int (what ^ ": node steps") s1 s2
  | M.Partitioned a, M.Partitioned b -> check_node_set (what ^ ": lost") a b
  | M.Stabilized _, M.Partitioned _ ->
      Alcotest.failf "%s: reference stabilized, fast partitioned" what
  | M.Partitioned _, M.Stabilized _ ->
      Alcotest.failf "%s: reference partitioned, fast stabilized" what

(* Seeded churn in lockstep.  Every event is applied to both engines
   and the full state compared; node failures every 23rd event keep
   partitions and reconnections frequent. *)
let churn ~rule ~seed ~events ~extra_edges n =
  let config = random_config ~extra_edges ~seed n in
  let sys = make rule config in
  agree "create" sys;
  let rand = rng (seed + 77) in
  for k = 1 to events do
    let u = Random.State.int rand n and v = Random.State.int rand n in
    if u <> v then begin
      let what = Printf.sprintf "event %d (%d,%d)" k u v in
      if k mod 23 = 0 then begin
        let victim = if u = M.destination sys.m then v else u in
        check_result what (M.fail_node sys.m victim) (FM.fail_node sys.f victim)
      end
      else if Digraph.mem_edge (M.graph sys.m) u v then
        check_result what (M.fail_link sys.m u v) (FM.fail_link sys.f u v)
      else begin
        M.add_link sys.m u v;
        FM.add_link sys.f u v
      end;
      agree what sys
    end
  done

let test_lockstep_churn_pr () =
  churn ~rule:M.Partial_reversal ~seed:11 ~events:160 ~extra_edges:12 14

let test_lockstep_churn_fr () =
  churn ~rule:M.Full_reversal ~seed:12 ~events:160 ~extra_edges:12 14

let test_lockstep_churn_sparse () =
  (* A near-tree graph partitions on almost every removal, exercising
     the union-find's split probes and the absorb-side bag drain on
     every reconnection. *)
  churn ~rule:M.Partial_reversal ~seed:13 ~events:200 ~extra_edges:1 12

(* A partitioned side accumulates sinks the reference only repairs
   after reconnection (its component scan sees them then); the fast
   engine must find them in the absorbed class's pending-sink bag, not
   the worklist. *)
let test_reconnection_finds_stale_sinks () =
  let config =
    Config.make_exn
      (Digraph.of_directed_edges [ (0, 1); (1, 2); (2, 3) ])
      ~destination:0
  in
  List.iter
    (fun rule ->
      let sys = make rule config in
      check_result "cut 1-2" (M.fail_link sys.m 1 2) (FM.fail_link sys.f 1 2);
      agree "after cut" sys;
      (* Churn inside the lost side: drop 2-3, then restore it.  The
         side is not stabilized, so this leaves sinks pending there. *)
      check_result "cut 2-3" (M.fail_link sys.m 2 3) (FM.fail_link sys.f 2 3);
      M.add_link sys.m 2 3;
      FM.add_link sys.f 2 3;
      agree "lost side churned" sys;
      (* Reconnect: both engines must now repair the absorbed side. *)
      M.add_link sys.m 1 2;
      FM.add_link sys.f 1 2;
      agree "after reconnection" sys;
      check_bool "oriented after reconnection" true
        (FM.is_destination_oriented sys.f))
    [ M.Partial_reversal; M.Full_reversal ]

let test_errors_match_reference () =
  let config = random_config ~seed:5 10 in
  let sys = make M.Partial_reversal config in
  let raises f = try f (); false with Invalid_argument _ -> true in
  let some_edge =
    match Digraph.directed_edges (M.graph sys.m) with
    | (u, v) :: _ -> (u, v)
    | [] -> Alcotest.fail "graph has no edges"
  in
  let u, v = some_edge in
  check_bool "duplicate add rejected" true
    (raises (fun () -> FM.add_link sys.f u v));
  check_bool "self-loop add rejected" true
    (raises (fun () -> FM.add_link sys.f 3 3));
  check_bool "out-of-range add rejected" true
    (raises (fun () -> FM.add_link sys.f 0 99));
  check_bool "absent fail_link rejected" true
    (raises (fun () ->
         ignore (FM.fail_link sys.f 99 0)));
  check_bool "destination fail_node rejected" true
    (raises (fun () -> ignore (FM.fail_node sys.f (FM.destination sys.f))));
  agree "after rejected calls" sys

(* {1 Component index} *)

(* Pinned partition→heal cycles against the reference oracle — the
   lazy-split soft spot: a cut only dirties the detached class, churn
   inside the lost side piles up pending sinks in its bag, and the
   heal must re-identify exactly the reattached side and requeue its
   sinks.  Every phase asserts full byte-identity ([agree] compares
   work, graph, heights, routes) plus [FM.consistent], under both
   rules. *)
let test_partition_heal_pinned () =
  (* Two branches off the destination with a cross link:
     0 -> 1 -> 2 -> 3 and 0 -> 4 -> 5 -> 6, plus 3 -> 6. *)
  let config =
    Config.make_exn
      (Digraph.of_directed_edges
         [ (0, 1); (1, 2); (2, 3); (0, 4); (4, 5); (5, 6); (3, 6) ])
      ~destination:0
  in
  List.iter
    (fun rule ->
      let sys = make rule config in
      agree "create" sys;
      (* Phase 1: sever the whole right branch (both entry points). *)
      check_result "cut 0-4" (M.fail_link sys.m 0 4) (FM.fail_link sys.f 0 4);
      agree "right branch dangling" sys;
      check_result "cut 3-6" (M.fail_link sys.m 3 6) (FM.fail_link sys.f 3 6);
      agree "right branch lost" sys;
      check_bool "4 detached" false (FM.in_dest_component sys.f 4);
      check_bool "1 still in" true (FM.in_dest_component sys.f 1);
      check_int "component shrank to the left branch" 4
        (FM.component_size sys.f);
      (* Phase 2: churn inside the lost side — splits and re-adds that
         only the lazy index sees as dirt, leaving pending sinks in
         the class bag. *)
      check_result "cut 5-6" (M.fail_link sys.m 5 6) (FM.fail_link sys.f 5 6);
      M.add_link sys.m 5 6;
      FM.add_link sys.f 5 6;
      check_result "cut 4-5" (M.fail_link sys.m 4 5) (FM.fail_link sys.f 4 5);
      agree "lost side churned" sys;
      (* Phase 3: heal deepest-first, so each absorb drags a dirty
         class back through re-identification. *)
      M.add_link sys.m 3 6;
      FM.add_link sys.f 3 6;
      agree "6 healed" sys;
      check_bool "6 rejoined" true (FM.in_dest_component sys.f 6);
      M.add_link sys.m 4 5;
      FM.add_link sys.f 4 5;
      agree "4-5 healed" sys;
      check_int "everyone back" 7 (FM.component_size sys.f);
      (* Phase 4: a node failure and its aftermath on the healed graph. *)
      check_result "fail node 5" (M.fail_node sys.m 5) (FM.fail_node sys.f 5);
      agree "node failure" sys;
      M.add_link sys.m 5 6;
      FM.add_link sys.f 5 6;
      agree "failed node rewired" sys;
      check_bool "oriented at the end" true
        (FM.is_destination_oriented sys.f))
    [ M.Partial_reversal; M.Full_reversal ]

(* Sparse seeded churn in lockstep with the reference: near-tree
   graphs, so removals often split a side off and additions often
   reattach one, each event checked through [agree] — membership and
   component size included. *)
let test_seeded_sparse_churn () =
  List.iter
    (fun (rule, seed) -> churn ~rule ~seed ~events:240 ~extra_edges:2 16)
    [ (M.Partial_reversal, 31); (M.Full_reversal, 32); (M.Partial_reversal, 33) ]

(* Repeated partition→heal cycles leak ghost slots until the arena
   passes [8n + 64] and compacts; the rebuild must be invisible to
   semantics. *)
let test_compaction_rebuilds () =
  let config =
    Config.make_exn
      (Digraph.of_directed_edges
         [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 6); (6, 7) ])
      ~destination:0
  in
  let sys = make M.Partial_reversal config in
  for _ = 1 to 48 do
    check_result "cycle cut" (M.fail_link sys.m 3 4) (FM.fail_link sys.f 3 4);
    M.add_link sys.m 3 4;
    FM.add_link sys.f 3 4
  done;
  let stats = FM.index_stats sys.f in
  check_bool "the arena compacted at least once" true (stats.FM.rebuilds >= 1);
  check_bool "slots back under the compaction bound" true
    (stats.FM.slots <= (8 * 8) + 64);
  agree "after compaction churn" sys

(* [in_dest_component] is the serving layer's O(α) No_route honesty
   check: on a stabilized engine it must answer exactly what the BFS
   [has_path] answers, through partitions and heals. *)
let test_membership_answers_reachability () =
  let config = random_config ~extra_edges:1 ~seed:44 12 in
  let f = FM.create M.Partial_reversal config in
  let rand = rng 440 in
  let sweep what =
    for u = 0 to 11 do
      check_bool
        (Printf.sprintf "%s: membership = reachability for %d" what u)
        (FM.has_path f u)
        (FM.in_dest_component f u)
    done
  in
  sweep "create";
  for k = 1 to 150 do
    let u = Random.State.int rand 12 and v = Random.State.int rand 12 in
    if u <> v then begin
      if FM.mem_edge f u v then ignore (FM.fail_link f u v)
      else FM.add_link f u v;
      sweep (Printf.sprintf "event %d" k)
    end
  done

(* {1 Next-hop cache} *)

let test_cache_hits_when_quiescent () =
  let config = random_config ~seed:21 16 in
  let f = FM.create M.Partial_reversal config in
  let query_all () =
    for u = 0 to FM.num_nodes f - 1 do
      ignore (FM.route f u)
    done
  in
  query_all ();
  let s1 = FM.cache_stats f in
  check_bool "first pass computes entries" true (s1.FM.misses > 0);
  query_all ();
  let s2 = FM.cache_stats f in
  check_int "quiescent queries add no misses" s1.FM.misses s2.FM.misses;
  check_bool "quiescent queries hit the cache" true (s2.FM.hits > s1.FM.hits);
  check_bool "no churn, no invalidations" true (s2.FM.invalidations = s1.FM.invalidations)

let test_cache_invalidated_by_churn () =
  let config = random_config ~seed:22 16 in
  let sys = make M.Partial_reversal config in
  for u = 0 to sys.n - 1 do
    ignore (FM.route sys.f u)
  done;
  let before = FM.cache_stats sys.f in
  (* Knock out an edge on some served route: heights and topology
     change, so entries must be dropped... *)
  let u, v =
    match Digraph.directed_edges (M.graph sys.m) with
    | e :: _ -> e
    | [] -> Alcotest.fail "no edges"
  in
  check_result "churn" (M.fail_link sys.m u v) (FM.fail_link sys.f u v);
  let after = FM.cache_stats sys.f in
  check_bool "churn invalidates" true
    (after.FM.invalidations > before.FM.invalidations);
  (* ... and the refilled cache must agree with the reference: no hop
     served from a stale entry. *)
  agree "after churn" sys;
  for u = 0 to sys.n - 1 do
    ignore (FM.route sys.f u)
  done;
  check_bool "cache sound after refill" true (FM.consistent sys.f)

let () =
  Alcotest.run "fast_maintenance"
    [
      suite "lockstep"
        [
          case "PR churn matches reference" test_lockstep_churn_pr;
          case "FR churn matches reference" test_lockstep_churn_fr;
          case "sparse churn (partition-heavy)" test_lockstep_churn_sparse;
          case "reconnection repairs stale sinks"
            test_reconnection_finds_stale_sinks;
          case "invalid calls rejected like the reference"
            test_errors_match_reference;
        ];
      suite "component index"
        [
          case "partition→heal cycles byte-identical (pinned)"
            test_partition_heal_pinned;
          case "seeds 31-33 match the reference" test_seeded_sparse_churn;
          case "ghost-slot pressure triggers compaction"
            test_compaction_rebuilds;
          case "membership answers reachability"
            test_membership_answers_reachability;
        ];
      suite "route cache"
        [
          case "hits when quiescent" test_cache_hits_when_quiescent;
          case "invalidated by churn, never stale"
            test_cache_invalidated_by_churn;
        ];
    ]
