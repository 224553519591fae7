open Lr_graph
open Linkrev
open Helpers
module F = Lr_routing.Failover
module M = Lr_routing.Maintenance
module FM = Lr_routing.Fast_maintenance
module Shard = Lr_service.Shard
module Op = Lr_service.Op

let test_single_component_elects_max_id () =
  (* A well-connected graph survives its destination's crash in one
     piece and elects the maximum id. *)
  let config = random_config ~extra_edges:20 ~seed:1 12 in
  match F.elect_after_destination_failure M.Partial_reversal config with
  | [ outcome ] ->
      let expected =
        Node.Set.max_elt
          (Node.Set.remove config.Config.destination (Config.nodes config))
      in
      check_int "max id wins" expected outcome.F.leader;
      check_bool "component oriented to leader" true outcome.F.oriented
  | outcomes -> Alcotest.failf "expected one component, got %d" (List.length outcomes)

let test_star_crash_splits_into_singletons () =
  (* Crashing the center of an inward star isolates every leaf: each
     becomes its own leader with zero work. *)
  let config =
    Config.of_instance (Generators.star ~center:0 ~leaves:4 ~inward:true)
  in
  let outcomes = F.elect_after_destination_failure M.Partial_reversal config in
  check_int "four singleton components" 4 (List.length outcomes);
  List.iter
    (fun o ->
      check_int "self-led" 1 (Node.Set.cardinal o.F.members);
      check_int "no work" 0 o.F.node_steps;
      check_bool "trivially oriented" true o.F.oriented)
    outcomes

let test_chain_crash_in_middle () =
  (* Failing the destination of the half-bad chain splits it in two. *)
  let config = Config.of_instance (Generators.half_bad_chain 9) in
  let outcomes = F.elect_after_destination_failure M.Partial_reversal config in
  check_int "two components" 2 (List.length outcomes);
  List.iter (fun o -> check_bool "oriented" true o.F.oriented) outcomes;
  let leaders = List.map (fun o -> o.F.leader) outcomes |> List.sort compare in
  (* left half 0..3 elects 3; right half 5..8 elects 8 *)
  Alcotest.(check (list int)) "leaders" [ 3; 8 ] leaders

let test_both_rules_work () =
  let config = random_config ~extra_edges:10 ~seed:9 10 in
  List.iter
    (fun rule ->
      List.iter
        (fun o -> check_bool "oriented" true o.F.oriented)
        (F.elect_after_destination_failure rule config))
    [ M.Partial_reversal; M.Full_reversal ]

(* The re-orientation work per rule, pinned on two instances where the
   rules differ, so a swapped or altered raise shows. *)
let test_rule_work_pinned () =
  List.iter
    (fun (seed, pr, fr) ->
      let config =
        Config.of_instance
          (Generators.random_connected_dag (Random.State.make [| seed |]) ~n:12 ~extra_edges:8)
      in
      let steps rule =
        List.map (fun o -> o.F.node_steps) (F.elect_after_destination_failure rule config)
      in
      Alcotest.(check (list int)) (Printf.sprintf "seed %d PR" seed) [ pr ] (steps M.Partial_reversal);
      Alcotest.(check (list int)) (Printf.sprintf "seed %d FR" seed) [ fr ] (steps M.Full_reversal))
    [ (1, 8, 11); (4, 17, 12) ]

let test_members_partition_survivors () =
  let config = random_config ~seed:12 12 in
  let outcomes = F.elect_after_destination_failure M.Partial_reversal config in
  let union =
    List.fold_left (fun acc o -> Node.Set.union acc o.F.members) Node.Set.empty
      outcomes
  in
  check_node_set "survivors covered"
    (Node.Set.remove config.Config.destination (Config.nodes config))
    union

(* {1 Native failover} *)

let summaries outcomes =
  List.map (fun o -> (Node.Set.cardinal o.F.members, o.F.leader)) outcomes
  |> List.sort compare

(* The failover path the fast tier used to take, kept as the oracle:
   materialize the graph, build a [Config], elect through [Failover]
   under the shard's rule, strip the old destination, [create]. *)
let oracle_failover rule ~live f =
  let old = FM.destination f in
  let g = FM.graph f in
  let outcomes = F.elect_after_destination_failure rule (Config.make_exn g ~destination:old) in
  match Shard.elect ~live (summaries outcomes) with
  | None -> (outcomes, None)
  | Some leader ->
      let stripped = Digraph.isolate g old in
      (outcomes, Some (leader, FM.create rule (Config.make_exn stripped ~destination:leader)))

let native_failover ~live f =
  match Shard.elect ~live (FM.survivor_components f) with
  | None -> None
  | Some leader ->
      FM.reroot f ~leader;
      Some (leader, f)

let route_testable = Alcotest.(option (list int))

(* Counters first, before the routes below move the cache's: a reroot
   that forgets to reset one shows here. *)
let same_session what a b =
  check_int (what ^ ": destination") (FM.destination a) (FM.destination b);
  check_int (what ^ ": total work") (FM.total_work a) (FM.total_work b);
  let ca = FM.cache_stats a and cb = FM.cache_stats b in
  Alcotest.(check (triple int int int))
    (what ^ ": cache hits/misses/invalidations")
    (ca.FM.hits, ca.FM.misses, ca.FM.invalidations)
    (cb.FM.hits, cb.FM.misses, cb.FM.invalidations);
  Alcotest.check digraph_testable (what ^ ": oriented graph") (FM.graph a) (FM.graph b);
  for u = 0 to FM.num_nodes a - 1 do
    Alcotest.(check (pair int int))
      (Printf.sprintf "%s: height of %d" what u)
      (FM.height a u) (FM.height b u);
    Alcotest.check route_testable
      (Printf.sprintf "%s: route from %d" what u)
      (FM.route a u) (FM.route b u)
  done;
  check_bool (what ^ ": oracle consistent") true (FM.consistent a);
  check_bool (what ^ ": native consistent") true (FM.consistent b)

(* Every reversal either session performs, in order, with the flipped
   neighbours in adjacency order — equal logs mean equal adjacency
   order, not just equal edge sets. *)
let observe f log =
  FM.set_observer f
    (Some (fun u flipped len -> log := (u, Array.to_list (Array.sub flipped 0 len)) :: !log))

(* [reroot] against the oracle path, in lockstep: seeded link churn
   between crashes (so the [Dyn] rows are unsorted when a crash
   strips them), hostile-height adoption and bit flips (so the
   crash-time heights are arbitrary), then crashes until both sides
   answer [Noop]. *)
let test_reroot_matches_oracle () =
  List.iter
    (fun (rule, seed) ->
      let n = 16 in
      let config = random_config ~extra_edges:10 ~seed n in
      let oracle = ref (FM.create rule config)
      and native = ref (FM.create rule config) in
      let log_o = ref [] and log_n = ref [] in
      observe !oracle log_o;
      observe !native log_n;
      let dead = ref Node.Set.empty in
      let live u = not (Node.Set.mem u !dead) in
      let rand = rng (seed + 500) in
      let both f = (f !oracle, f !native) in
      let crashes = ref 0 and finished = ref false in
      while not !finished do
        let what = Printf.sprintf "rule/seed %d crash %d" seed !crashes in
        for _ = 1 to 30 do
          let u = Random.State.int rand n and v = Random.State.int rand n in
          if u <> v && live u && live v then
            if FM.mem_edge !oracle u v then ignore (both (fun f -> FM.fail_link f u v))
            else ignore (both (fun f -> FM.add_link f u v))
        done;
        (match !crashes mod 3 with
        | 1 ->
            let h = Shard.hostile_height ~seed:(seed + !crashes) ~magnitude:64 in
            ignore (both (fun f -> FM.adopt_heights f h))
        | 2 ->
            let node = Random.State.int rand n and bit = Random.State.int rand 5 in
            let pa, pb = FM.height !oracle node in
            ignore
              (both (fun f ->
                   FM.adopt_heights f (fun u ->
                       if u = node then (pa lxor (1 lsl bit), pb) else FM.height f u)))
        | _ -> ());
        same_session (what ^ " before") !oracle !native;
        Alcotest.(check (list (pair int (list int)))) (what ^ ": reversal log") !log_o !log_n;
        let outcomes, o = oracle_failover rule ~live !oracle in
        Alcotest.(check (list (pair int int)))
          (what ^ ": component summaries")
          (summaries outcomes)
          (List.sort compare (FM.survivor_components !native));
        match (o, native_failover ~live !native) with
        | None, None -> finished := true
        | Some (lo, fo), Some (ln, fn) ->
            check_int (what ^ ": leader") lo ln;
            dead := Node.Set.add (FM.destination !oracle) !dead;
            oracle := fo;
            native := fn;
            same_session (what ^ " after") fo fn;
            log_o := [];
            log_n := [];
            observe fo log_o;
            observe fn log_n;
            incr crashes
        | Some _, None -> Alcotest.failf "%s: only the oracle elected" what
        | None, Some _ -> Alcotest.failf "%s: only the native path elected" what
      done;
      check_bool "crashed down to no live candidate" true (!crashes >= 2))
    [ (M.Partial_reversal, 61); (M.Full_reversal, 62); (M.Partial_reversal, 63);
      (M.Partial_reversal, 64) ]

(* Words [f ()] allocates, minor plus major.  [Gc.minor_words] and
   [Gc.counters]' major figure count at once, where [Gc.quick_stat]'s
   lag on OCaml 5.1: young words until the next minor collection,
   pooled major blocks until a later flush.  Collecting first keeps
   older objects' promotion out of the major figure. *)
let words_allocated f =
  let major () =
    let _, _, words = Gc.counters () in
    words
  in
  Gc.minor ();
  let minor0 = Gc.minor_words () and major0 = major () in
  f ();
  let minor1 = Gc.minor_words () and major1 = major () in
  minor1 -. minor0 +. (major1 -. major0)

(* [reroot] reseeds the session it is given instead of building one, so
   on a churned 1024-node engine it must allocate under a word per node
   in all (a rebuilt session costs over a hundred per node). *)
let test_reroot_allocates_under_a_word_per_node () =
  let n = 1024 in
  let f = FM.create M.Partial_reversal (random_config ~extra_edges:2048 ~seed:91 n) in
  let rand = rng 910 in
  for _ = 1 to 400 do
    let u = Random.State.int rand n and v = Random.State.int rand n in
    if u <> v then
      if FM.mem_edge f u v then ignore (FM.fail_link f u v) else FM.add_link f u v
  done;
  let leader =
    match Shard.elect ~live:(fun _ -> true) (FM.survivor_components f) with
    | Some leader -> leader
    | None -> Alcotest.fail "no leader elected"
  in
  let words = words_allocated (fun () -> FM.reroot f ~leader) in
  if words >= float_of_int n then
    Alcotest.failf "reroot allocated %.0f words on %d nodes" words n;
  check_int "rerooted to the leader" leader (FM.destination f);
  check_bool "consistent after reroot" true (FM.consistent f)

let crash shard = Shard.apply shard (Op.Crash_destination { shard = 0 })

let on_both_tiers config f =
  List.iter
    (fun engine ->
      f engine (Shard.create ~engine ~rule:M.Partial_reversal ~id:0 config))
    [ Shard.Fast; Shard.Reference ]

let expect_leader what o leader =
  match o.Shard.response with
  | Op.New_destination { leader = l; _ } -> check_int what leader l
  | r -> Alcotest.failf "%s: expected New_destination, got %s" what (Op.response_to_string r)

let test_crash_with_everyone_dead_is_noop () =
  let config =
    Config.make_exn (Digraph.of_directed_edges [ (2, 1); (1, 0) ]) ~destination:0
  in
  on_both_tiers config (fun _ shard ->
      expect_leader "first crash" (crash shard) 2;
      expect_leader "second crash" (crash shard) 1;
      let o = crash shard in
      check_bool "no live candidate: Noop" true (o.Shard.response = Op.Noop);
      check_int "not a validation failure" 0 o.Shard.validation_failures;
      check_int "destination kept" 1 (Shard.destination shard);
      check_int "epoch kept" 2 (Shard.epoch shard);
      check_bool "still consistent" true (Shard.consistent shard))

(* A star whose centre is the greatest id: every crash leaves
   singletons, and the greatest *live* one must win — the dead former
   centre is greater still. *)
let test_singletons_elect_greatest_live () =
  let config =
    Config.make_exn
      (Digraph.of_directed_edges [ (0, 4); (1, 4); (2, 4); (3, 4) ])
      ~destination:4
  in
  on_both_tiers config (fun _ shard ->
      expect_leader "centre crash" (crash shard) 3;
      expect_leader "dead 4 is skipped" (crash shard) 2;
      expect_leader "then 1" (crash shard) 1)

let test_crash_with_plane_attached () =
  let config = random_config ~extra_edges:6 ~seed:71 12 in
  let answers = ref [] in
  on_both_tiers config (fun _ shard ->
      let ops =
        [ Op.Inject { shard = 0; src = 3; count = 5 }; Op.Forward { shard = 0; slots = 1 };
          Op.Crash_destination { shard = 0 }; Op.Inject { shard = 0; src = 3; count = 2 };
          Op.Forward { shard = 0; slots = 4 }; Op.Crash_destination { shard = 0 } ]
      in
      let out = List.map (fun op -> Shard.apply shard op) ops in
      List.iter (fun o -> check_int "no validation failure" 0 o.Shard.validation_failures) out;
      check_bool "consistent after crashes with a plane" true (Shard.consistent shard);
      answers := List.map (fun o -> Op.response_to_string o.Shard.response) out :: !answers);
  match !answers with
  | [ r; f ] -> Alcotest.(check (list string)) "tiers answer alike" f r
  | _ -> Alcotest.fail "expected two tiers"

(* Crashes through [Shard] on both tiers, with link churn between them.
   The shard's own bookkeeping — retired work, the dead set, the epoch
   — must agree: the fast tier reroots in place, so a shard that read
   the old session's destination or work after [reroot] would book the
   new session's instead. *)
let test_shard_bookkeeping_agrees () =
  List.iter
    (fun (rule, seed) ->
      let n = 16 in
      let config = random_config ~extra_edges:10 ~seed n in
      let fast = Shard.create ~engine:Shard.Fast ~rule ~id:0 config
      and refr = Shard.create ~engine:Shard.Reference ~rule ~id:0 config in
      let rand = rng (seed + 700) in
      let apply what op =
        let a = Shard.apply fast op and b = Shard.apply refr op in
        Alcotest.(check string)
          (what ^ ": " ^ Op.to_line op)
          (Op.response_to_string b.Shard.response)
          (Op.response_to_string a.Shard.response);
        check_int (what ^ ": op work") b.Shard.work a.Shard.work;
        a.Shard.response
      in
      let books what =
        check_int (what ^ ": total work") (Shard.total_work refr) (Shard.total_work fast);
        check_node_set (what ^ ": dead") (Shard.dead refr) (Shard.dead fast);
        check_int (what ^ ": epoch") (Shard.epoch refr) (Shard.epoch fast);
        check_int (what ^ ": destination") (Shard.destination refr) (Shard.destination fast)
      in
      let rec go crashes =
        let what = Printf.sprintf "rule/seed %d crash %d" seed crashes in
        for _ = 1 to 20 do
          let u = Random.State.int rand n and v = Random.State.int rand n in
          ignore
            (apply what
               (if Random.State.bool rand then Op.Link_down { shard = 0; u; v }
                else Op.Link_up { shard = 0; u; v }))
        done;
        books (what ^ " before");
        match apply what (Op.Crash_destination { shard = 0 }) with
        | Op.New_destination _ ->
            books (what ^ " after");
            go (crashes + 1)
        | _ ->
            books (what ^ " at Noop");
            crashes
      in
      check_bool "crashed at least twice" true (go 0 >= 2))
    [ (M.Partial_reversal, 81); (M.Full_reversal, 82) ]

(* {1 Exhaustive small graphs} *)

(* Every connected graph on at most five nodes ([small_instances]) x
   every destination x PR/FR: crash until [Noop].  After each native
   failover the fast shard must be acyclic, hold a consistent engine,
   and route every member of the leader's component to the leader; and
   every crash and route answer must equal the reference tier's. *)
let test_exhaustive_small_graphs () =
  let instances = small_instances () in
  let checked = ref 0 in
  List.iter
    (fun rule ->
      List.iter
        (fun config ->
          let fast = Shard.create ~engine:Shard.Fast ~rule ~id:0 config
          and refr = Shard.create ~engine:Shard.Reference ~rule ~id:0 config in
          let n = Digraph.num_nodes config.Config.initial in
          let what () =
            Format.asprintf "%a dest %d, epoch %d" Digraph.pp config.Config.initial
              config.Config.destination (Shard.epoch fast)
          in
          let rec go () =
            let of_ = crash fast and or_ = crash refr in
            let rf = Op.response_to_string of_.Shard.response
            and rr = Op.response_to_string or_.Shard.response in
            if rf <> rr then Alcotest.failf "%s: crash %s vs reference %s" (what ()) rf rr;
            match of_.Shard.response with
            | Op.New_destination { leader; _ } ->
                incr checked;
                let g = Shard.graph fast in
                if not (Digraph.is_acyclic g) then Alcotest.failf "%s: cyclic" (what ());
                if not (Shard.consistent fast) then Alcotest.failf "%s: inconsistent" (what ());
                let reach = Digraph.reaches g leader in
                for u = 0 to n - 1 do
                  if Shard.in_dest_component fast u && not (Node.Set.mem u reach) then
                    Alcotest.failf "%s: %d cannot reach leader %d" (what ()) u leader;
                  let route sh = Shard.apply sh (Op.Route { shard = 0; src = u }) in
                  let a = route fast and b = route refr in
                  if a.Shard.validation_failures > 0 then
                    Alcotest.failf "%s: route from %d failed validation" (what ()) u;
                  if a.Shard.response <> b.Shard.response then
                    Alcotest.failf "%s: route from %d differs from the reference" (what ()) u
                done;
                go ()
            | _ -> ()
          in
          go ())
        instances)
    [ M.Partial_reversal; M.Full_reversal ];
  check_bool "native failovers were checked" true (!checked > 10_000)

let () =
  Alcotest.run "failover"
    [
      suite "failover"
        [
          case "single component elects max id" test_single_component_elects_max_id;
          case "star crash isolates leaves" test_star_crash_splits_into_singletons;
          case "middle crash splits a chain" test_chain_crash_in_middle;
          case "both reversal rules work" test_both_rules_work;
          case "reversal work pinned per rule" test_rule_work_pinned;
          case "members partition the survivors" test_members_partition_survivors;
        ];
      suite "native"
        [
          case "reroot matches the config/elect/create path" test_reroot_matches_oracle;
          case "reroot allocates under a word per node"
            test_reroot_allocates_under_a_word_per_node;
          case "no live candidate answers Noop" test_crash_with_everyone_dead_is_noop;
          case "equal singletons elect the greatest live id"
            test_singletons_elect_greatest_live;
          case "crash with a packet plane attached" test_crash_with_plane_attached;
          case "shard bookkeeping agrees across tiers" test_shard_bookkeeping_agrees;
        ];
      suite "exhaustive"
        [ case "every graph on <= 5 nodes, every destination" test_exhaustive_small_graphs ];
    ]
