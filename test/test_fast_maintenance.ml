(* Differential tests of the fast maintenance engine against the
   persistent reference: identical work, heights order, orientation,
   routes, partition reports and destination-component membership
   under seeded churn — plus the next-hop cache contract (hits when
   quiescent, invalidation on churn, never a stale path; staleness is
   also recomputed inside [FM.consistent]). *)

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
   membership bitmap's answers against the reference's destination
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
     the split probe on removals and the attach BFS on every
     reconnection. *)
  churn ~rule:M.Partial_reversal ~seed:13 ~events:200 ~extra_edges:1 12

(* A partitioned side accumulates sinks the reference only repairs
   after reconnection (its component scan sees them then); the fast
   engine drops them from its worklist while the side is cut off, so
   the attach BFS must queue them again. *)
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
      (* Reconnect: both engines must now repair the reattached side. *)
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

(* Pinned partition→heal cycles against the reference oracle: a cut
   unmarks the lost side, churn inside it leaves sinks the worklist
   drops, and each heal must mark exactly the reattached side and
   queue its sinks again.  Every phase asserts full byte-identity
   ([agree] compares work, graph, heights, routes, membership) plus
   [FM.consistent], under both rules. *)
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
         change no membership bit and leave sinks unrepaired. *)
      check_result "cut 5-6" (M.fail_link sys.m 5 6) (FM.fail_link sys.f 5 6);
      M.add_link sys.m 5 6;
      FM.add_link sys.f 5 6;
      check_result "cut 4-5" (M.fail_link sys.m 4 5) (FM.fail_link sys.f 4 5);
      agree "lost side churned" sys;
      (* Phase 3: heal deepest-first, so the first attach labels only
         part of the lost side and the second the rest. *)
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

(* Repeated partition→heal cycles on a chain: every cycle cuts the
   chain in half and heals it, each phase in lockstep with the
   reference, and the engine's heap footprint stays what [create] left
   — the index is a fixed bitmap, so no cycle may grow it. *)
let test_partition_heal_footprint () =
  let config =
    Config.make_exn
      (Digraph.of_directed_edges
         [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 6); (6, 7) ])
      ~destination:0
  in
  let sys = make M.Partial_reversal config in
  let words = Obj.reachable_words (Obj.repr sys.f) in
  for k = 1 to 48 do
    check_result "cycle cut" (M.fail_link sys.m 3 4) (FM.fail_link sys.f 3 4);
    M.add_link sys.m 3 4;
    FM.add_link sys.f 3 4;
    if k mod 16 = 0 then agree (Printf.sprintf "after cycle %d" k) sys
  done;
  check_int "reachable words after 48 cycles" words
    (Obj.reachable_words (Obj.repr sys.f))

(* [in_dest_component] is the serving layer's one-read No_route
   honesty check: on a stabilized engine it must answer exactly what the BFS
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

(* {1 The shared churn tape}

   D-S2's storm check as a tier-1 test: the tape the ladder and
   [linkrev storm] replay must leave both tiers in the same state. *)

module Churn = Lr_routing.Churn

let churn_tape ~seed n =
  let config = random_config ~extra_edges:(n / 2) ~seed n in
  (config, Churn.tape (rng (seed + 77)) ~events:(6 * n) config)

let test_churn_tiers_agree rule () =
  let config, tape = churn_tape ~seed:5 64 in
  let m = M.create rule config and f = FM.create rule config in
  Array.iteri
    (fun i op ->
      check_bool
        (Printf.sprintf "op %d: same partition report" i)
        (Churn.apply_reference m op) (Churn.apply_fast f op))
    tape;
  check_int "total work" (M.total_work m) (FM.total_work f);
  check_bool "graph fingerprint" true
    (Int64.equal (Digraph.fingerprint (M.graph m))
       (Digraph.fingerprint (FM.graph f)));
  for u = 0 to 63 do
    Alcotest.check route_testable
      (Printf.sprintf "route from %d" u)
      (M.route m u) (FM.route f u)
  done;
  check_bool "consistent after the tape" true (FM.consistent f)

let test_churn_tape_fixed () =
  let _, a = churn_tape ~seed:5 64 and _, b = churn_tape ~seed:5 64 in
  check_bool "same RNG, same tape" true (a = b);
  let count p = Array.fold_left (fun k op -> if p op then k + 1 else k) 0 a in
  let downs = count (function Churn.Down _ -> true | _ -> false) in
  let ups = count (function Churn.Up _ -> true | _ -> false) in
  let fails = count (function Churn.Fail _ -> true | _ -> false) in
  check_int "node failures: every 41st of 384 events" 9 fails;
  (* the 188 even events that are not node failures *)
  check_int "link-downs" 188 downs;
  (* 187 odd draws, 8 of which hit a present pair or a self-loop *)
  check_int "link-ups (pinned)" 179 ups;
  check_bool "link-downs are ordered pairs" true
    (Array.for_all (function Churn.Down (u, v) -> u < v | _ -> true) a)

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
          case "heal cycles keep the footprint"
            test_partition_heal_footprint;
          case "membership answers reachability"
            test_membership_answers_reachability;
        ];
      suite "route cache"
        [
          case "hits when quiescent" test_cache_hits_when_quiescent;
          case "invalidated by churn, never stale"
            test_cache_invalidated_by_churn;
        ];
      suite "churn tape"
        [
          case "PR tape: both tiers agree"
            (test_churn_tiers_agree M.Partial_reversal);
          case "FR tape: both tiers agree"
            (test_churn_tiers_agree M.Full_reversal);
          case "a fixed RNG gives a fixed tape" test_churn_tape_fixed;
        ];
    ]
