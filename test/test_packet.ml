open Helpers
module Fifo = Lr_packet.Fifo
module Plane = Lr_packet.Plane
module Geo = Lr_packet.Geo
module Scenario = Lr_packet.Scenario

let good_chain n = Linkrev.Config.of_instance (Lr_graph.Generators.good_chain n)

(* {1 Fifo} *)

let test_fifo_basic () =
  let q = Fifo.create ~capacity:3 in
  check_bool "empty" true (Fifo.is_empty q);
  check_bool "push a" true (Fifo.push q 10);
  check_bool "push b" true (Fifo.push q 11);
  check_bool "push c" true (Fifo.push q 12);
  check_bool "full" true (Fifo.is_full q);
  check_bool "push refused" false (Fifo.push q 13);
  check_int "peek" 10 (Fifo.peek q);
  check_int "pop a" 10 (Fifo.pop q);
  check_bool "push wraps" true (Fifo.push q 13);
  check_int "pop b" 11 (Fifo.pop q);
  check_int "pop c" 12 (Fifo.pop q);
  check_int "pop d" 13 (Fifo.pop q);
  check_int "pop empty" (-1) (Fifo.pop q);
  check_int "peek empty" (-1) (Fifo.peek q)

let test_fifo_wraparound_order () =
  let q = Fifo.create ~capacity:4 in
  for round = 0 to 9 do
    check_bool "push x" true (Fifo.push q (2 * round));
    check_bool "push y" true (Fifo.push q ((2 * round) + 1));
    check_int "pop x" (2 * round) (Fifo.pop q);
    check_int "pop y" ((2 * round) + 1) (Fifo.pop q)
  done;
  check_bool "drained" true (Fifo.is_empty q)

(* {1 Plane} *)

(* On the good chain (everything already points at 0), packets flow to
   the destination one hop per slot with no reversals. *)
let test_plane_chain_delivery () =
  let p = Plane.create ~qcap:8 (good_chain 6) in
  let accepted, dropped = Plane.inject p ~src:5 ~count:3 in
  check_int "accepted" 3 accepted;
  check_int "dropped" 0 dropped;
  let c0 = Plane.counters p in
  for _ = 1 to 40 do
    Plane.slot p
  done;
  let c = Plane.counters p in
  check_int "all delivered" 3 (c.Plane.delivered - c0.Plane.delivered);
  check_int "no reversals on a destination-oriented chain" 0
    (c.Plane.reversals - c0.Plane.reversals);
  check_int "nothing queued" 0 (Plane.queued p);
  check_bool "consistent" true (Plane.consistent p);
  (* 3 packets, 5 hops each, shortest distance 5: stretch exactly 1. *)
  check_int "hops" 15 c.Plane.hops_sum;
  check_int "dist" 15 c.Plane.dist_sum

(* On the bad chain (everything points away from 0), forwarding alone
   is stuck: queue-driven reversals must re-point the DAG. *)
let test_plane_bad_chain_reverses_and_delivers () =
  let p = Plane.create ~qcap:8 (bad_chain 6) in
  let accepted, _ = Plane.inject p ~src:3 ~count:2 in
  check_int "accepted" 2 accepted;
  let c0 = Plane.counters p in
  for _ = 1 to 200 do
    Plane.slot p
  done;
  let c = Plane.counters p in
  check_int "all delivered" 2 (c.Plane.delivered - c0.Plane.delivered);
  check_bool "reversals happened" true (c.Plane.reversals > c0.Plane.reversals);
  check_bool "consistent" true (Plane.consistent p)

let test_plane_drops_when_full () =
  let p = Plane.create ~qcap:4 (good_chain 4) in
  let accepted, dropped = Plane.inject p ~src:3 ~count:7 in
  check_int "accepted" 4 accepted;
  check_int "dropped" 3 dropped;
  let c = Plane.counters p in
  check_int "counter dropped" 3 c.Plane.dropped;
  check_int "high water" 4 (Plane.high_water p);
  check_bool "consistent" true (Plane.consistent p)

let test_plane_inject_at_destination_is_zero_hop () =
  let p = Plane.create (good_chain 4) in
  let accepted, dropped = Plane.inject p ~src:0 ~count:5 in
  check_int "accepted" 5 accepted;
  check_int "dropped" 0 dropped;
  let c = Plane.counters p in
  check_int "delivered immediately" 5 c.Plane.delivered;
  check_int "nothing queued" 0 (Plane.queued p)

(* Queue differentials spread load: with everything injected at one
   node of a random DAG, delivery completes and the orientation stays
   a DAG (derived from a total order, checked via edge_out asymmetry). *)
let test_plane_random_backpressure () =
  let config = random_config ~seed:5 24 in
  let p = Plane.create ~qcap:6 config in
  let n = Plane.num_nodes p in
  let dest = Plane.destination p in
  let src = if dest = 0 then 1 else 0 in
  let accepted = ref 0 in
  for s = 0 to 199 do
    if s < 50 then begin
      let a, _ = Plane.inject p ~src ~count:2 in
      accepted := !accepted + a
    end;
    Plane.slot p;
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if Plane.mem_edge p u v then
          check_bool "antisymmetric orientation" true
            (Plane.edge_out p u v <> Plane.edge_out p v u)
      done
    done
  done;
  let c = Plane.counters p in
  check_int "all accepted packets delivered" !accepted c.Plane.delivered;
  check_bool "consistent" true (Plane.consistent p)

(* Churn: cutting the chain strands packets behind the cut; no node
   there raises, since no orientation can reach the destination across
   the cut; restoring the link lets the backlog drain completely. *)
let test_plane_churn_strands_then_recovers () =
  let p = Plane.create ~qcap:8 (good_chain 5) in
  ignore (Plane.inject p ~src:4 ~count:3 : int * int);
  Plane.remove_link p 1 2;
  check_bool "edge gone" false (Plane.mem_edge p 1 2);
  for _ = 1 to 60 do
    Plane.slot p
  done;
  let mid = Plane.counters p in
  check_int "stranded" 0 mid.Plane.delivered;
  check_int "no raise while cut off" 0 mid.Plane.reversals;
  Plane.add_link p 1 2;
  for _ = 1 to 200 do
    Plane.slot p
  done;
  let fin = Plane.counters p in
  check_int "backlog drained after repair" 3 fin.Plane.delivered;
  check_bool "consistent" true (Plane.consistent p)

(* A long cut: packets wait behind it for 10,000 slots while the cut-off
   side keeps its heights — no raise there (the counter counts every
   one) and no edge among its nodes turns — and after the repair the
   backlog arrives within 4n slots. *)
let test_plane_long_cut_keeps_heights () =
  let n = 8 in
  let p = Plane.create ~qcap:8 (good_chain n) in
  let side = [ (4, 5); (5, 6); (6, 7) ] in
  let orientation () = List.map (fun (u, v) -> Plane.edge_out p u v) side in
  let before = orientation () in
  let accepted, _ = Plane.inject p ~src:(n - 1) ~count:5 in
  Plane.remove_link p 3 4;
  for s = 1 to 10_000 do
    Plane.slot p;
    if s mod 1_000 = 0 then
      check_bool "cut-off side keeps its orientation" true
        (List.equal Bool.equal before (orientation ()))
  done;
  let mid = Plane.counters p in
  check_int "nothing crosses the cut" 0 mid.Plane.delivered;
  check_int "no raise behind the cut" 0 mid.Plane.reversals;
  Plane.add_link p 3 4;
  let slots = ref 0 in
  while (Plane.counters p).Plane.delivered < accepted && !slots < 4 * n do
    Plane.slot p;
    incr slots
  done;
  check_int "backlog delivered within 4n slots of the repair" accepted
    (Plane.counters p).Plane.delivered;
  check_bool "consistent" true (Plane.consistent p)

(* Height seeding from the stabilized fast engine must agree with the
   engine's own orientation edge for edge. *)
let test_plane_engine_height_seeding () =
  let config = random_config ~seed:9 20 in
  let fm = Lr_routing.Fast_maintenance.create Lr_routing.Maintenance.Partial_reversal config in
  let n = Lr_routing.Fast_maintenance.num_nodes fm in
  let ha = Array.make n 0 and hb = Array.make n 0 in
  for u = 0 to n - 1 do
    let a, b = Lr_routing.Fast_maintenance.height fm u in
    ha.(u) <- a;
    hb.(u) <- b
  done;
  let p = Plane.create ~heights:(ha, hb) config in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Plane.mem_edge p u v then
        check_bool "orientation matches the engine" true
          (Plane.edge_out p u v = Lr_routing.Fast_maintenance.edge_out fm u v)
    done
  done

(* A blocked node's reversal is the maintenance engines' PR raise.  Node
   2 holds a packet and sits below all three neighbours, one of them
   (node 1) at the [pa] the raise lands on: partial reversal keeps 2
   below 1, full reversal would lift it above every neighbour. *)
let test_plane_reversal_is_the_pr_raise () =
  let module M = Lr_routing.Maintenance in
  let module H = Linkrev.Heights in
  let config =
    Linkrev.Config.make_exn
      (Lr_graph.Digraph.of_directed_edges [ (2, 0); (2, 1); (2, 3); (1, 0); (3, 0) ])
      ~destination:0
  in
  let ha = [| 0; 1; 0; 0 |] and hb = [| 5; 0; 1; 2 |] in
  let height u = { H.pa = ha.(u); pb = hb.(u); pid = u } in
  let p = Plane.create ~heights:(ha, hb) config in
  ignore (Plane.inject p ~src:2 ~count:1 : int * int);
  let before = (Plane.counters p).Plane.reversals in
  Plane.slot p;
  check_int "the blocked node reverses once" 1
    ((Plane.counters p).Plane.reversals - before);
  let raised = M.raise_height M.Partial_reversal (height 2) (List.map height [ 0; 1; 3 ]) in
  List.iter
    (fun w ->
      check_bool
        (Printf.sprintf "2-%d oriented by the shared raise" w)
        (H.compare_pr_height raised (height w) > 0)
        (Plane.edge_out p 2 w))
    [ 0; 1; 3 ];
  check_bool "2 stays below 1" false (Plane.edge_out p 2 1)

(* Birth distances under churn: a seeded walk of link removals and
   additions and injects on a 24-node plane.  Each inject is drained at
   once (after its links are restored, if the source was cut off), so
   its [dist_sum] delta is [accepted] times the source's hop distance
   at injection, by a BFS over the links this test tracks.  A source
   cut off from the destination, or the destination itself, adds
   nothing: its packets carry birth distance 0, also when a restored
   link lets them through.  Injects without a link change between them
   resume one BFS. *)
let test_plane_birth_distances_under_churn () =
  let n = 24 in
  let config = random_config ~extra_edges:4 ~seed:23 n in
  let p = Plane.create ~qcap:16 config in
  let dest = Plane.destination p in
  let base = Array.make_matrix n n false in
  for u = 0 to n - 1 do
    Lr_graph.Node.Set.iter (fun v -> base.(u).(v) <- true) (Linkrev.Config.nbrs config u)
  done;
  let link = Array.map Array.copy base in
  let distance src =
    let d = Array.make n (-1) and q = Queue.create () in
    d.(dest) <- 0;
    Queue.add dest q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      for w = 0 to n - 1 do
        if link.(u).(w) && d.(w) < 0 then begin
          d.(w) <- d.(u) + 1;
          Queue.add w q
        end
      done
    done;
    d.(src)
  in
  let set_link u v present =
    if present then Plane.add_link p u v else Plane.remove_link p u v;
    link.(u).(v) <- present;
    link.(v).(u) <- present
  in
  let st = rng 23 in
  let pairs present =
    let l = ref [] in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if link.(u).(v) = present then l := (u, v) :: !l
      done
    done;
    !l
  in
  let toggle present =
    match pairs present with
    | [] -> ()
    | l ->
        let u, v = List.nth l (Random.State.int st (List.length l)) in
        set_link u v (not present)
  in
  let reached = ref 0 and cut_off = ref 0 and at_dest = ref 0 in
  for _ = 1 to 600 do
    match Random.State.int st 5 with
    | 0 | 1 -> toggle true
    | 2 -> toggle false
    | _ ->
        let src = Random.State.int st n and count = 1 + Random.State.int st 4 in
        let before = (Plane.counters p).Plane.dist_sum in
        let accepted, _ = Plane.inject p ~src ~count in
        let d = distance src in
        if src = dest then incr at_dest
        else if d < 0 then begin
          incr cut_off;
          List.iter (fun (u, v) -> if base.(u).(v) then set_link u v true) (pairs false)
        end
        else incr reached;
        let slots = ref 0 in
        while Plane.queued p > 0 && !slots < 50 * n do
          Plane.slot p;
          incr slots
        done;
        check_int "drained" 0 (Plane.queued p);
        check_int "dist_sum delta = accepted x BFS distance"
          (if d > 0 then accepted * d else 0)
          ((Plane.counters p).Plane.dist_sum - before)
  done;
  check_bool "some sources reached the destination" true (!reached > 0);
  check_bool "some sources were cut off" true (!cut_off > 0);
  check_bool "some injects were at the destination" true (!at_dest > 0);
  check_bool "consistent" true (Plane.consistent p)

(* {1 Geo} *)

let test_geo_generate_connected () =
  let inst = Geo.generate (rng 3) ~n:60 ~radius:0.22 () in
  check_int "n" 60 inst.Geo.n;
  Array.iter (fun d -> check_bool "connected" true (d >= 0)) inst.Geo.hop_dist;
  check_int "dest at distance 0" 0 inst.Geo.hop_dist.(inst.Geo.dest)

let test_geo_void_recovery_beats_greedy () =
  let r = Scenario.run_void Scenario.default_void in
  check_bool "void creates local minima" true (r.Scenario.minima > 0);
  check_bool "greedy strands packets" true
    (r.Scenario.greedy.Geo.delivered < r.Scenario.greedy.Geo.injected);
  check_int "recovery delivers everything" r.Scenario.recovery.Geo.injected
    r.Scenario.recovery.Geo.delivered;
  check_bool "recovery raised levels" true (r.Scenario.recovery.Geo.max_level > 0);
  check_int "greedy never raises levels" 0 r.Scenario.greedy.Geo.max_level

let test_geo_no_void_greedy_ok () =
  (* Dense disk without a void: greedy alone should deliver. *)
  let inst = Geo.generate (rng 12) ~n:80 ~radius:0.3 () in
  let sources = [| (inst.Geo.dest + 1) mod inst.Geo.n |] in
  let r = Geo.run Geo.Greedy inst ~sources ~per_source:2 ~max_slots:500 ~qcap:4 in
  check_int "greedy delivers on a dense disk" r.Geo.injected r.Geo.delivered

(* {1 Scenario} *)

let test_scenario_low_rate_stable () =
  let spec = { Scenario.default_bp with nodes = 32; extra_edges = 32; slots = 128; rate = 2 } in
  let r = Scenario.run_backpressure spec in
  check_int "offered" (128 * 2) r.Scenario.offered;
  check_int "no drops" 0 r.Scenario.dropped;
  check_int "everything delivered" r.Scenario.injected r.Scenario.delivered;
  check_int "nothing remaining" 0 r.Scenario.remaining;
  check_bool "stable" false r.Scenario.diverged

let test_scenario_overload_diverges () =
  let spec =
    { Scenario.default_bp with nodes = 32; extra_edges = 32; slots = 128; rate = 64; qcap = 8 }
  in
  let r = Scenario.run_backpressure spec in
  check_bool "drops under overload" true (r.Scenario.dropped > 0);
  check_bool "diverged" true r.Scenario.diverged

let test_scenario_threshold () =
  let spec = { Scenario.default_bp with nodes = 32; extra_edges = 32; slots = 128; qcap = 8 } in
  let results = Scenario.sweep spec ~rates:[ 1; 2; 4; 48 ] in
  match Scenario.stability_threshold results with
  | None -> Alcotest.fail "expected a stability threshold"
  | Some r -> check_bool "threshold below the overload rate" true (r >= 1 && r < 48)

let test_scenario_churn_delivers () =
  let spec =
    { Scenario.default_bp with nodes = 32; extra_edges = 48; slots = 256; rate = 2; churn_every = 16 }
  in
  let r = Scenario.run_backpressure spec in
  check_int "churn: everything accepted is delivered" r.Scenario.injected r.Scenario.delivered;
  check_bool "churn forced reversals" true (r.Scenario.reversals >= 0)

let () =
  Alcotest.run "packet"
    [
      suite "fifo"
        [
          case "push/pop/bounds" test_fifo_basic;
          case "wraparound order" test_fifo_wraparound_order;
        ];
      suite "plane"
        [
          case "chain delivery, stretch 1" test_plane_chain_delivery;
          case "bad chain reverses then delivers" test_plane_bad_chain_reverses_and_delivers;
          case "full queue drops" test_plane_drops_when_full;
          case "zero-hop at destination" test_plane_inject_at_destination_is_zero_hop;
          case "random backpressure stays acyclic" test_plane_random_backpressure;
          case "churn strands then recovers" test_plane_churn_strands_then_recovers;
          case "a long cut keeps the cut-off heights" test_plane_long_cut_keeps_heights;
          case "engine height seeding" test_plane_engine_height_seeding;
          case "reversal is the shared PR raise" test_plane_reversal_is_the_pr_raise;
          case "birth distances under churn" test_plane_birth_distances_under_churn;
        ];
      suite "geo"
        [
          case "connected generation" test_geo_generate_connected;
          case "void: recovery beats greedy" test_geo_void_recovery_beats_greedy;
          case "no void: greedy suffices" test_geo_no_void_greedy_ok;
        ];
      suite "scenario"
        [
          case "low rate is stable" test_scenario_low_rate_stable;
          case "overload diverges" test_scenario_overload_diverges;
          case "sweep finds a threshold" test_scenario_threshold;
          case "delivery under churn" test_scenario_churn_delivers;
        ];
    ]
