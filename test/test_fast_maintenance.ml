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
        check_bool
          (Printf.sprintf "%s: height order %d/%d" what u v)
          (M.compare_heights sys.m u v > 0)
          (FM.edge_out sys.f u v)
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
   partitions and reconnections frequent.  Every 17th event both
   engines adopt the same hostile height assignment and heal, so the
   link-downs and node-fails after it start from a healed state, not
   only from one that churn alone reached. *)
let churn ~rule ~seed ~events ~extra_edges n =
  let config = random_config ~extra_edges ~seed n in
  let sys = make rule config in
  agree "create" sys;
  let rand = rng (seed + 77) in
  for k = 1 to events do
    let u = Random.State.int rand n and v = Random.State.int rand n in
    if u <> v then begin
      let what = Printf.sprintf "event %d (%d,%d)" k u v in
      if k mod 17 = 0 then begin
        let h = Lr_service.Shard.hostile_height ~seed:(seed + k) ~magnitude:16 in
        check_result what (M.adopt_heights sys.m h) (FM.adopt_heights sys.f h)
      end
      else if k mod 23 = 0 then begin
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

(* Dense churn in lockstep.  [Workload] draws a distinct pair and a
   coin: heads takes the link down if present, tails brings it up if
   absent, which drives a shard toward density 1/2 — degree ~n/2, where
   a raise meets ties at the least [pa] and one above it in long rows.
   The shard starts near-tree and runs from there; every [k]-th event
   both tiers adopt the same hostile heights instead.  After every
   event the change results, every height and [FM.consistent] are
   compared. *)
let dense_churn ~rule ~seed ~events ~k n =
  let config = random_config ~extra_edges:2 ~seed n in
  let sys = make rule config in
  let rand = rng (seed + 99) in
  for e = 1 to events do
    let what = Printf.sprintf "event %d" e in
    (if e mod k = 0 then begin
       let h = Lr_service.Shard.hostile_height ~seed:(seed + e) ~magnitude:16 in
       check_result what (M.adopt_heights sys.m h) (FM.adopt_heights sys.f h)
     end
     else begin
       let u = Random.State.int rand n in
       let v = (u + 1 + Random.State.int rand (n - 1)) mod n in
       let present = FM.mem_edge sys.f u v in
       if Random.State.bool rand then begin
         if present then check_result what (M.fail_link sys.m u v) (FM.fail_link sys.f u v)
       end
       else if not present then begin
         M.add_link sys.m u v;
         FM.add_link sys.f u v
       end
     end);
    for u = 0 to n - 1 do
      if M.height_pair sys.m u <> FM.height sys.f u then
        Alcotest.failf "%s: height of %d differs" what u
    done;
    if not (FM.consistent sys.f) then Alcotest.failf "%s: fast engine inconsistent" what
  done;
  check_int "total work" (M.total_work sys.m) (FM.total_work sys.f);
  let links = Digraph.num_edges (M.graph sys.m) in
  check_bool
    (Printf.sprintf "density near 1/2 (%d of %d links)" links (n * (n - 1) / 2))
    true
    (5 * links > 2 * (n * (n - 1) / 2))

let test_dense_churn_pr () = dense_churn ~rule:M.Partial_reversal ~seed:41 ~events:4000 ~k:25 48
let test_dense_churn_fr () = dense_churn ~rule:M.Full_reversal ~seed:42 ~events:4000 ~k:25 48

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
   honesty check: on a stabilized engine it must answer exactly what a
   directed-path BFS on the engine's graph answers, through partitions
   and heals. *)
let test_membership_answers_reachability () =
  let config = random_config ~extra_edges:1 ~seed:44 12 in
  let f = FM.create M.Partial_reversal config in
  let rand = rng 440 in
  let sweep what =
    for u = 0 to 11 do
      check_bool
        (Printf.sprintf "%s: membership = reachability for %d" what u)
        (Digraph.has_path (FM.graph f) u (FM.destination f))
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

(* {1 Exhaustive small graphs} *)

let same_result a b =
  match (a, b) with
  | M.Stabilized { node_steps = s1 }, M.Stabilized { node_steps = s2 } -> s1 = s2
  | M.Partitioned a, M.Partitioned b -> Node.Set.equal a b
  | _ -> false

type op = Down of int * int | Up of int * int | Fail of int

let op_to_string = function
  | Down (u, v) -> Printf.sprintf "down %d-%d" u v
  | Up (u, v) -> Printf.sprintf "up %d-%d" u v
  | Fail u -> Printf.sprintf "fail %d" u

(* [ops] on fresh sessions of both tiers.  After every op the change
   results must be equal, so must the oriented graphs and the work, the
   fast engine must be consistent, and the quiescent state must be
   acyclic and destination-oriented within the destination's component
   (Thm 4.3/5.5). *)
let lockstep rule config ops =
  let m = M.create rule config and f = FM.create rule config in
  List.iteri
    (fun i op ->
      let what () =
        Format.asprintf "%a dest %d, %s" Digraph.pp config.Config.initial
          config.Config.destination
          (String.concat ", "
             (List.map op_to_string (List.filteri (fun j _ -> j <= i) ops)))
      in
      let compare_results rm rf =
        if not (same_result rm rf) then check_result (what ()) rm rf
      in
      (match op with
      | Down (u, v) -> compare_results (M.fail_link m u v) (FM.fail_link f u v)
      | Fail u -> compare_results (M.fail_node m u) (FM.fail_node f u)
      | Up (u, v) ->
          M.add_link m u v;
          FM.add_link f u v);
      if not (Digraph.equal (M.graph m) (FM.graph f)) then
        Alcotest.failf "%s: oriented graphs differ" (what ());
      if M.total_work m <> FM.total_work f then
        Alcotest.failf "%s: work differs" (what ());
      if not (FM.consistent f) then
        Alcotest.failf "%s: fast engine inconsistent" (what ());
      if not (Digraph.is_acyclic (M.graph m) && M.is_destination_oriented m) then
        Alcotest.failf "%s: not acyclic and destination-oriented" (what ()))
    ops

let links g =
  List.map
    (fun e -> (Edge.lo e, Edge.hi e))
    (Edge.Set.elements (Undirected.edges (Digraph.skeleton g)))

(* Every op sequence [sequences config] lists, in lockstep on every
   instance of [small_instances]; returns the number of ops run. *)
let exhaustive rule sequences =
  List.fold_left
    (fun n config ->
      List.fold_left
        (fun n ops ->
          lockstep rule config ops;
          n + List.length ops)
        n (sequences config))
    0 (small_instances ())

(* Every single link-down and node-fail on every instance of
   [small_instances], and up to four nodes every pair of link-downs and
   every link-down followed by a node-fail: the one-sided probe must
   cut off exactly what the reference's before-minus-after component
   difference loses. *)
let test_exhaustive_removals rule () =
  let sequences config =
    let g = config.Config.initial in
    let downs = List.map (fun (u, v) -> Down (u, v)) (links g) in
    let fails =
      List.filter_map
        (fun u -> if u = config.Config.destination then None else Some (Fail u))
        (Node.Set.elements (Digraph.nodes g))
    in
    List.map (fun op -> [ op ]) (downs @ fails)
    @
    if Digraph.num_nodes g > 4 then []
    else
      List.concat_map
        (fun d ->
          List.filter_map (fun d' -> if d' <> d then Some [ d; d' ] else None) downs
          @ List.map (fun f -> [ d; f ]) fails)
        downs
  in
  check_int "ops checked" 139_502 (exhaustive rule sequences)

(* Every link-up of an absent pair on every instance of
   [small_instances], and up to four nodes every link-down followed by
   every link-up, the removed link included: an up that rejoins a side
   the down cut off drives [attach]. *)
let test_exhaustive_link_ups rule () =
  let sequences config =
    let g = config.Config.initial in
    let nodes = Node.Set.elements (Digraph.nodes g) in
    let ups =
      List.concat_map
        (fun u ->
          List.filter_map
            (fun v ->
              if u < v && not (Digraph.mem_edge g u v) then Some (Up (u, v))
              else None)
            nodes)
        nodes
    in
    List.map (fun op -> [ op ]) ups
    @
    if Digraph.num_nodes g > 4 then []
    else
      List.concat_map
        (fun (u, v) -> List.map (fun up -> [ Down (u, v); up ]) (Up (u, v) :: ups))
        (links g)
  in
  check_int "ops checked" 59_532 (exhaustive rule sequences)

(* The bitset worklist pops exactly what the heap it replaced popped:
   the lowest-id sink.  On 8,192 nodes (256 words, 8 summary words), a
   hostile adoption lowers runs of ids in every eighth word, so each
   word queues several sinks at once and every summary word is used.
   Each node that steps must be the lowest-id sink of the destination's
   component at that moment, found by a scan over the test's own rows
   and its own copy of the heights; and when the engine stops, that scan
   must find no sink left. *)
let test_worklist_order rule () =
  let config = random_config ~seed:5 8192 in
  let f = FM.create rule config in
  let n = FM.num_nodes f and dest = FM.destination f in
  check_int "one component" n (FM.component_size f);
  let rows = Undirected.rows (Digraph.skeleton config.Config.initial) in
  let hostile u =
    let a, b = FM.height f u in
    if (u lsr 5) land 7 = 3 && u mod 3 <> 1 then (a - 50, b) else (a, b)
  in
  let ha = Array.init n (fun u -> fst (hostile u)) in
  let hb = Array.init n (fun u -> snd (hostile u)) in
  let higher u w =
    ha.(u) > ha.(w) || (ha.(u) = ha.(w) && (hb.(u) > hb.(w) || (hb.(u) = hb.(w) && u > w)))
  in
  let is_sink u =
    let row = rows.(u) in
    let i = ref 0 in
    while !i < Array.length row && higher row.(!i) u do
      incr i
    done;
    u <> dest && Array.length row > 0 && !i = Array.length row
  in
  let rec min_sink u = if u = n then -1 else if is_sink u then u else min_sink (u + 1) in
  let steps = ref 0 and wrong = ref None and summary_words = Array.make 8 false in
  FM.set_observer f
    (Some
       (fun u _ _ ->
         (if !wrong = None then
            let want = min_sink 0 in
            if want <> u then wrong := Some (!steps, want, u));
         let a, b = FM.height f u in
         ha.(u) <- a;
         hb.(u) <- b;
         summary_words.(u lsr 10) <- true;
         incr steps));
  let r = FM.adopt_heights f hostile in
  FM.set_observer f None;
  (match !wrong with
  | None -> ()
  | Some (i, want, got) -> Alcotest.failf "step %d: node %d stepped, lowest sink %d" i got want);
  let node_steps = match r with M.Stabilized { node_steps } -> node_steps | _ -> -1 in
  check_int "every step observed" node_steps !steps;
  check_bool "steps in every summary word" true (Array.for_all Fun.id summary_words);
  check_int "no sink left" (-1) (min_sink 0);
  check_bool "consistent" true (FM.consistent f)

(* {1 The one-pass raise} *)

(* [FM.raise_height] at node 0 of a star whose leaves 1..k carry
   [nbrs] in row order, against [M.raise_height] on the same heights. *)
let check_raise what rule (a, b) nbrs =
  let k = Array.length nbrs in
  let rows = Array.init (k + 1) (fun v -> if v = 0 then Array.init k succ else [| 0 |]) in
  let ha = Array.init (k + 1) (fun v -> if v = 0 then a else fst nbrs.(v - 1)) in
  let hb = Array.init (k + 1) (fun v -> if v = 0 then b else snd nbrs.(v - 1)) in
  FM.raise_height rule (Lr_fast.Fast_graph.Dyn.of_rows rows) ha hb 0;
  let h (a, b) pid = { Heights.pa = a; pb = b; pid } in
  let want =
    M.raise_height rule (h (a, b) 0) (Array.to_list (Array.mapi (fun i x -> h x (i + 1)) nbrs))
  in
  Alcotest.(check (pair int int)) what (want.Heights.pa, want.Heights.pb) (ha.(0), hb.(0))

(* Row orders where the running minimum moves: ties at the least [pa]
   and at one above it (equal [pb] included), the least [pa] dropping
   by exactly one mid-row — the level it leaves is then the one above —
   and by more, a single neighbour, and values at the ends of the int
   range, where [pb = max_int] one level up must still count and the
   raise wraps. *)
let adversarial_rows =
  [
    ("single neighbour", [| (3, 5) |]);
    ("ties at the least pa", [| (2, 4); (2, -1); (5, 0); (2, 7) |]);
    ("equal pb one above", [| (1, 0); (2, 3); (2, 3); (4, 0) |]);
    ("drop by one", [| (5, 2); (6, 1); (4, 9); (6, -3); (5, 8) |]);
    ("drop by more", [| (5, 2); (6, 1); (3, 9); (5, -3) |]);
    ("drop by one, then more", [| (5, 2); (4, 1); (2, 0); (3, 7) |]);
    ("drop by one twice", [| (6, 0); (5, 4); (4, 9); (5, -2) |]);
    ("one above first", [| (7, 1); (6, 3) |]);
    ("drop by one onto a tie", [| (4, 0); (3, 5); (3, 2); (4, -1) |]);
    ("max_int pb one above", [| (0, 0); (1, max_int) |]);
    ("max_int pa", [| (max_int, 0); (max_int, -4) |]);
    ("min_int pa", [| (min_int + 1, 0); (min_int, 2); (min_int + 1, -7) |]);
  ]

let test_raise_adversarial () =
  List.iter
    (fun (name, nbrs) ->
      List.iter
        (fun (rule, r) ->
          check_raise (Printf.sprintf "%s: %s" r name) rule (9, 4) nbrs;
          (* The same neighbourhood in reverse row order. *)
          let rev = Array.of_list (List.rev (Array.to_list nbrs)) in
          check_raise (Printf.sprintf "%s: %s, reversed" r name) rule (9, 4) rev)
        [ (M.Partial_reversal, "PR"); (M.Full_reversal, "FR") ])
    adversarial_rows

(* Random neighbourhoods with [pa] drawn from four adjacent levels and
   [pb] from seven values, so ties and one-level drops are the rule. *)
let test_raise_random () =
  let rand = rng 606 in
  for i = 1 to 20_000 do
    let base = Random.State.int rand 10 - 5 in
    let nbrs =
      Array.init
        (1 + Random.State.int rand 12)
        (fun _ -> (base + Random.State.int rand 4, Random.State.int rand 7 - 3))
    in
    let rule = if i land 1 = 0 then M.Partial_reversal else M.Full_reversal in
    check_raise (Printf.sprintf "neighbourhood %d" i) rule (base, Random.State.int rand 7 - 3) nbrs
  done

(* On a dense graph (64 nodes, about half of all pairs linked), every
   step of a hostile adoption must report as flipped exactly the
   neighbours now below the stepped node, in row order: [create] adopts
   the skeleton's sorted rows and an adoption changes no link, so row
   order is ascending id. *)
let test_flipped_lists rule () =
  let n = 64 in
  let config = random_config ~extra_edges:(n * n / 4) ~seed:9 n in
  let f = FM.create rule config in
  let rows = Undirected.rows (Digraph.skeleton config.Config.initial) in
  let links = Array.fold_left (fun m row -> m + Array.length row) 0 rows / 2 in
  check_bool "dense" true (3 * links > n * (n - 1) / 2);
  let steps = ref 0 in
  FM.set_observer f
    (Some
       (fun u flipped len ->
         let got = Array.to_list (Array.sub flipped 0 len) in
         let want = List.filter (fun w -> FM.edge_out f u w) (Array.to_list rows.(u)) in
         if got <> want then Alcotest.failf "step %d at node %d: wrong flipped list" !steps u;
         incr steps));
  let r = FM.adopt_heights f (Lr_service.Shard.hostile_height ~seed:3 ~magnitude:16) in
  FM.set_observer f None;
  let node_steps = match r with M.Stabilized { node_steps } -> node_steps | _ -> -1 in
  check_int "every step observed" node_steps !steps;
  check_bool "the adoption stepped" true (!steps > 0);
  check_bool "consistent" true (FM.consistent f)

(* A raise whose [pb] wraps: the sink 0 at (0, -5) has neighbours 1 at
   (0, 0) and 2 at (1, min_int), so PR raises it to (1, min_int - 1),
   which wraps to (1, max_int), above both.  Both links flip although
   only 1 is at the least [pa]: the step must list and count both, as
   the reference orients them. *)
let test_wrapped_raise () =
  let config =
    Config.make_exn
      (Digraph.of_directed_edges [ (0, 1); (0, 2); (1, 3); (2, 3) ])
      ~destination:3
  in
  let sys = make M.Partial_reversal config in
  let h = function 0 -> (0, -5) | 1 -> (0, 0) | 2 -> (1, min_int) | _ -> (-10, 0) in
  let steps = ref [] in
  FM.set_observer sys.f
    (Some (fun u flipped len -> steps := (u, Array.to_list (Array.sub flipped 0 len)) :: !steps));
  check_result "adopt" (M.adopt_heights sys.m h) (FM.adopt_heights sys.f h);
  FM.set_observer sys.f None;
  Alcotest.(check (list (pair int (list int)))) "one step, both flipped" [ (0, [ 1; 2 ]) ] !steps;
  Alcotest.(check (pair int int)) "wrapped height" (1, max_int) (FM.height sys.f 0);
  agree "after the wrapped raise" sys;
  check_bool "consistent" true (FM.consistent sys.f)

let () =
  Alcotest.run "fast_maintenance"
    [
      suite "lockstep"
        [
          case "PR churn matches reference" test_lockstep_churn_pr;
          case "FR churn matches reference" test_lockstep_churn_fr;
          case "sparse churn (partition-heavy)" test_lockstep_churn_sparse;
          case "PR dense churn with hostile adoptions" test_dense_churn_pr;
          case "FR dense churn with hostile adoptions" test_dense_churn_fr;
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
      suite "worklist"
        [
          case "PR: each step is the lowest-id sink" (test_worklist_order M.Partial_reversal);
          case "FR: each step is the lowest-id sink" (test_worklist_order M.Full_reversal);
        ];
      suite "one-pass raise"
        [
          case "adversarial rows match the reference" test_raise_adversarial;
          case "random rows match the reference" test_raise_random;
          case "PR: flipped lists on a dense graph" (test_flipped_lists M.Partial_reversal);
          case "FR: flipped lists on a dense graph" (test_flipped_lists M.Full_reversal);
          case "PR: a raise that wraps pb flips every neighbour below" test_wrapped_raise;
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
      suite "exhaustive"
        [
          case "PR: every removal on <= 5 nodes matches the reference"
            (test_exhaustive_removals M.Partial_reversal);
          case "FR: every removal on <= 5 nodes matches the reference"
            (test_exhaustive_removals M.Full_reversal);
          case "PR: every link-up on <= 5 nodes matches the reference"
            (test_exhaustive_link_ups M.Partial_reversal);
          case "FR: every link-up on <= 5 nodes matches the reference"
            (test_exhaustive_link_ups M.Full_reversal);
        ];
    ]
