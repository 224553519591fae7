(* D-F1..D-F9: the quantitative context the paper cites — worst-case
   and average work, dummy steps, the reversal game, maintenance under
   failures, schedule independence, TORA, parallel time, and scale. *)

open Lr_graph
open Linkrev
open Harness
module A = Lr_automata
module W = Lr_analysis.Work
module T = Lr_analysis.Table

(* D-F1: the Θ(n_b²) worst case, for FR and PR on their bad families. *)

let f1_sizes = [ 8; 16; 32; 64; 128; 256 ]

let f1_active_sizes s =
  if smoke s then List.filteri (fun i _ -> i < max 1 (s.trials / 3)) f1_sizes
  else f1_sizes

(* The three D-F1 sweeps as one flat row list — deterministic families,
   so the pool and the sequential loop must agree exactly.  Served by
   the fast engines: work is schedule-independent for FR and PR and the
   engines are differentially tested against the persistent automata,
   so the rows match the executor's, without its ~13 s of quadratic
   persistent-map churn on the n=256 instances. *)
let f1_sweeps s =
  let sizes = f1_active_sizes s in
  [
    ("FR bad chain", fun ~jobs -> W.sweep_fast ~jobs W.FR ~family:Generators.bad_chain ~sizes ());
    ("PR sawtooth", fun ~jobs -> W.sweep_fast ~jobs W.PR ~family:Generators.sawtooth ~sizes ());
    ("PR bad chain", fun ~jobs -> W.sweep_fast ~jobs W.PR ~family:Generators.bad_chain ~sizes ());
  ]

let f1 s =
  section "D-F1" "worst-case work: Theta(nb^2) for both FR and PR (cited bound)";
  let sizes = f1_sizes in
  let g = gate () in
  let run algo family name expected =
    let rows = W.sweep_fast ~jobs:s.jobs algo ~family ~sizes () in
    check_rows g ~what:(W.algorithm_name algo ^ " on " ^ name) rows;
    T.print ~title:(Printf.sprintf "%s on %s" (W.algorithm_name algo) name)
      (W.rows_to_table algo rows);
    Printf.printf "growth exponent: %.2f (%s)\n\n" (W.exponent rows) expected
  in
  run W.FR Generators.bad_chain
    "bad chain (all edges away from destination)"
    "expected 2.0 — quadratic";
  run W.PR Generators.sawtooth
    "sawtooth chain (alternating orientation)"
    "expected 2.0 — quadratic: PR shares FR's worst case";
  run W.PR Generators.bad_chain
    "bad chain (contrast case)"
    "expected 1.0 — PR fixes this family in n-1 steps";
  (* figure: the shapes side by side *)
  let series algo family =
    let rows = W.sweep_fast algo ~family ~sizes:[ 8; 16; 32; 64; 128 ] () in
    check_rows g ~what:("figure D-F1: " ^ W.algorithm_name algo) rows;
    List.map (fun r -> (Printf.sprintf "n=%d" r.W.n, float_of_int r.W.work)) rows
  in
  print_endline "figure D-F1a: FR work on the bad chain (quadratic)";
  print_string
    (Lr_analysis.Histogram.render
       (List.map
          (fun (label, value) -> { Lr_analysis.Histogram.label; value })
          (series W.FR Generators.bad_chain)));
  print_endline "\nfigure D-F1b: PR work, sawtooth (quadratic) vs bad chain (linear)";
  print_string
    (Lr_analysis.Histogram.render_compare ~labels:("saw", "chain")
       (List.map2
          (fun (label, a) (_, b) -> (label, a, b))
          (series W.PR Generators.sawtooth)
          (series W.PR Generators.bad_chain)));
  finish g

(* D-F2: average-case efficiency, PR vs FR on random DAGs. *)

let f2 _ =
  section "D-F2" "average work on random DAGs: PR <= FR in practice";
  let sizes = [ 16; 32; 64; 128 ] in
  let rows =
    List.map
      (fun n ->
        let ratios, pr_w, fr_w =
          List.fold_left
            (fun (rs, ps, fs) seed ->
              let config = random_config ~seed:(seed + (17 * n)) n in
              let w algo = (W.run_one ~seed algo config).Executor.total_node_steps in
              let pr = w W.PR and fr = w W.FR in
              let r =
                if fr = 0 then 1.0 else float_of_int pr /. float_of_int fr
              in
              (r :: rs, ps + pr, fs + fr))
            ([], 0, 0) (List.init 20 Fun.id)
        in
        [
          string_of_int n;
          string_of_int pr_w;
          string_of_int fr_w;
          Printf.sprintf "%.2f" (Lr_analysis.Stats.mean ratios);
          Printf.sprintf "%.2f" (Lr_analysis.Stats.maximum ratios);
        ])
      sizes
  in
  T.print
    ~title:"total work over 20 random DAGs per size (work ratio = PR/FR)"
    (T.make
       ~headers:[ "n"; "PR work"; "FR work"; "mean PR/FR"; "max PR/FR" ]
       rows);
  Printf.printf
    "expected shape: mean ratio < 1 (PR cheaper on average), while max > 1 on\n\
     some instances — either algorithm can lose a particular race, which is\n\
     the counter-intuitive backdrop (equal worst cases) the paper recalls.\n"

(* D-F3: NewPR's dummy-step overhead (paper §4.1 discussion). *)

let f3 _ =
  section "D-F3" "NewPR dummy-step overhead vs OneStepPR (paper 4.1)";
  let families =
    [
      ("sawtooth (many initial sinks/sources)", Generators.sawtooth, [ 8; 16; 32; 64 ]);
      ("bad chain (one initial sink)", Generators.bad_chain, [ 8; 16; 32; 64 ]);
      ( "star out (source centre)",
        (fun n -> Generators.star ~center:0 ~leaves:(n - 1) ~inward:false),
        [ 8; 16; 32 ] );
    ]
  in
  List.iter
    (fun (name, family, sizes) ->
      let rows =
        List.map
          (fun n ->
            let config = Config.of_instance (family n) in
            let w algo = (W.run_one algo config).Executor.total_node_steps in
            let pr = w W.PR and np = w W.NewPR in
            [
              string_of_int n;
              string_of_int pr;
              string_of_int np;
              string_of_int (np - pr);
            ])
          sizes
      in
      T.print ~title:name
        (T.make
           ~headers:[ "n"; "OneStepPR steps"; "NewPR steps"; "dummy steps" ]
           rows);
      print_newline ())
    families;
  Printf.printf
    "expected shape: overhead = number of dummy steps, >= 0, largest on graphs\nwith many initial sinks/sources.\n"

(* D-F4: the reversal game (Charron-Bost et al., cited in §1). *)

let f4 _ =
  section "D-F4" "reversal game: FR profile is an NE with max social cost";
  let module G = Lr_analysis.Game in
  let instances =
    [
      ("bad chain n=6", Config.of_instance (Generators.bad_chain 6));
      ("sawtooth n=6", Config.of_instance (Generators.sawtooth 6));
      ( "diamond+tail",
        Config.make_exn
          (Digraph.of_directed_edges [ (0, 1); (0, 2); (1, 3); (2, 3); (3, 4) ])
          ~destination:0 );
      ("random n=7", random_config ~seed:3 7);
      ("random n=8", random_config ~seed:8 8);
    ]
  in
  let rows =
    List.map
      (fun (name, config) ->
        let fr = G.uniform G.Full config and pr = G.uniform G.Partial config in
        let rf = G.play config fr and rp = G.play config pr in
        let _, opt = G.social_optimum config in
        [
          name;
          string_of_int rf.G.social_cost;
          string_of_bool (G.is_nash config fr);
          string_of_int rp.G.social_cost;
          string_of_bool (G.is_nash config pr);
          string_of_int opt.G.social_cost;
        ])
      instances
  in
  T.print
    ~title:"strategy profiles: social cost and Nash equilibria (exhaustive)"
    (T.make
       ~headers:
         [ "instance"; "all-FR cost"; "FR is NE"; "all-PR cost"; "PR is NE"; "optimum" ]
       rows);
  Printf.printf
    "expected shape (cited results): FR always an NE; PR cost <= FR cost;\nwhen all-PR is an NE its cost equals the optimum.\n"

(* D-F5: routing convergence under failures, FR vs PR heights. *)

let f5 _ =
  section "D-F5" "route maintenance cost under link failures, FR vs PR";
  let module M = Lr_routing.Maintenance in
  let trial rule seed =
    let config =
      Config.of_instance
        (Generators.random_connected_dag (rng seed) ~n:40 ~extra_edges:50)
    in
    let m = M.create rule config in
    let r = rng (seed + 1) in
    let repairs = ref 0 and work = ref 0 and partitions = ref 0 in
    for _ = 1 to 30 do
      let edges = Digraph.directed_edges (M.graph m) in
      let u, v = List.nth edges (Random.State.int r (List.length edges)) in
      match M.fail_link m u v with
      | M.Stabilized { node_steps; _ } ->
          incr repairs;
          work := !work + node_steps
      | M.Partitioned _ ->
          incr partitions;
          M.add_link m u v
    done;
    (!repairs, !work, !partitions)
  in
  let rows =
    List.concat_map
      (fun (name, rule) ->
        List.map
          (fun seed ->
            let repairs, work, partitions = trial rule seed in
            [
              name;
              string_of_int seed;
              string_of_int repairs;
              string_of_int partitions;
              string_of_int work;
              (if repairs = 0 then "-"
               else
                 Printf.sprintf "%.2f"
                   (float_of_int work /. float_of_int repairs));
            ])
          [ 1; 2; 3 ])
      [ ("PR", M.Partial_reversal); ("FR", M.Full_reversal) ]
  in
  T.print
    ~title:"30 random link failures on 40-node networks (3 seeds per rule)"
    (T.make
       ~headers:[ "rule"; "seed"; "repairs"; "partitions"; "total work"; "work/repair" ]
       rows);
  Printf.printf
    "expected shape: most single-link failures repaired with little work;\nPR's average repair cost <= FR's.\n";
  let module HP = Lr_routing.Height_protocol in
  let rows =
    List.concat_map
      (fun (fname, family) ->
        List.map
          (fun n ->
            let config = Config.of_instance (family n) in
            let p = HP.run ~rule:M.Partial_reversal config in
            let f = HP.run ~rule:M.Full_reversal config in
            [
              fname;
              string_of_int n;
              string_of_int p.HP.total_raises;
              string_of_int p.HP.stats.Lr_sim.Network.sent;
              string_of_int f.HP.total_raises;
              string_of_int f.HP.stats.Lr_sim.Network.sent;
            ])
          [ 20; 40; 80 ])
      [
        ( "random DAG",
          fun n -> Generators.random_connected_dag (rng (n * 3)) ~n ~extra_edges:n );
        ( "unit disk",
          fun n -> Generators.unit_disk (rng (n * 7)) ~n ~radius:(2.0 /. sqrt (float_of_int n)) );
      ]
  in
  print_newline ();
  T.print
    ~title:
      "asynchronous height protocol (message-passing simulation; unit disk = radio model)"
    (T.make
       ~headers:[ "topology"; "n"; "PR raises"; "PR msgs"; "FR raises"; "FR msgs" ]
       rows)

(* D-F6: schedule independence — the ablation behind all work numbers. *)

let f6 _ =
  section "D-F6"
    "ablation: per-node work is schedule independent (Gafni-Bertsekas)";
  let schedulers () =
    [
      ("first (deterministic adversary)", A.Scheduler.first ());
      ("last", A.Scheduler.last ());
      ("round-robin", A.Scheduler.round_robin ~index:(fun (One_step_pr.Reverse u) -> u) ());
      ("random seed 1", A.Scheduler.random (rng 1));
      ("random seed 2", A.Scheduler.random (rng 2));
    ]
  in
  let rows = ref [] in
  let mismatches = ref 0 in
  List.iter
    (fun (fname, family) ->
      List.iter
        (fun n ->
          let config = Config.of_instance (family n) in
          let works =
            List.map
              (fun (sname, sched) ->
                let out =
                  Executor.run ~scheduler:sched
                    ~destination:config.Config.destination
                    (One_step_pr.algo config)
                in
                (sname, out.Executor.total_node_steps, out.Executor.node_steps))
              (schedulers ())
          in
          let _, w0, per0 = List.hd works in
          let all_equal =
            List.for_all
              (fun (_, w, per) -> w = w0 && Node.Map.equal Int.equal per per0)
              works
          in
          if not all_equal then incr mismatches;
          rows :=
            [ fname; string_of_int n; string_of_int w0;
              string_of_bool all_equal ]
            :: !rows)
        [ 16; 32; 64 ])
    [ ("sawtooth", Generators.sawtooth);
      ("bad chain", Generators.bad_chain);
      ("random", fun n -> Generators.random_connected_dag (rng n) ~n ~extra_edges:(n / 2)) ];
  T.print
    ~title:"PR work under 5 schedulers (equal = identical per-node counts)"
    (T.make
       ~headers:[ "family"; "n"; "work"; "all 5 schedulers equal" ]
       (List.rev !rows));
  Printf.printf "mismatches: %d  (theory: 0 — reversal work is schedule independent)\n"
    !mismatches

(* D-F7: TORA under a failure storm. *)

let f7 _ =
  section "D-F7" "TORA: failure storm on 30-node networks";
  let trial seed =
    let config =
      Config.of_instance
        (Generators.random_connected_dag_dest (rng seed) ~n:30 ~extra_edges:25
           ~destination:0)
    in
    let t = Lr_routing.Tora.create config in
    let r = rng (seed + 1000) in
    let repaired = ref 0 and partitions = ref 0 and heals = ref 0 in
    for _ = 1 to 40 do
      let edges =
        Edge.Set.elements (Undirected.edges (Lr_routing.Tora.skeleton t))
      in
      if edges <> [] then begin
        let e = List.nth edges (Random.State.int r (List.length edges)) in
        let u, v = Edge.endpoints e in
        match Lr_routing.Tora.fail_link t u v with
        | Lr_routing.Tora.Maintained _ -> incr repaired
        | Lr_routing.Tora.Partition_detected { cleared; _ } ->
            incr partitions;
            (match Node.Set.choose_opt cleared with
            | Some w
              when not (Undirected.mem_edge (Lr_routing.Tora.skeleton t) w 0) ->
                incr heals;
                ignore (Lr_routing.Tora.add_link t w 0)
            | _ -> ())
      end
    done;
    ( !repaired,
      !partitions,
      !heals,
      Lr_routing.Tora.reactions_total t,
      Lr_routing.Tora.routed_fraction t,
      Lr_routing.Tora.acyclic t )
  in
  let rows =
    List.map
      (fun seed ->
        let repaired, partitions, heals, reactions, routed, acyclic =
          trial seed
        in
        [
          string_of_int seed;
          string_of_int repaired;
          string_of_int partitions;
          string_of_int heals;
          string_of_int reactions;
          Printf.sprintf "%.0f%%" (100.0 *. routed);
          string_of_bool acyclic;
        ])
      [ 1; 2; 3; 4; 5 ]
  in
  T.print ~title:"40 random link failures per trial (partitions healed)"
    (T.make
       ~headers:
         [ "seed"; "repaired"; "partitions"; "heals"; "reactions"; "routed"; "acyclic" ]
       rows);
  Printf.printf
    "expected shape: routes always restored, acyclic throughout; partitions\ndetected by case 4 (a node's own reflected reference level returning).\n"

(* D-F8: time vs work — greedy maximal-parallel rounds. *)

let f8 _ =
  section "D-F8" "parallel time: rounds with all sinks stepping at once";
  let rows =
    List.concat_map
      (fun (fname, family) ->
        List.map
          (fun n ->
            let config = Config.of_instance (family n) in
            (* Greedy: fire the largest enabled sink set each round. *)
            let greedy =
              A.Scheduler.greedy
                ~score:(fun (Pr.Reverse s) -> Node.Set.cardinal s)
                ()
            in
            let out_par =
              Executor.run ~scheduler:greedy
                ~destination:config.Config.destination
                (Pr.algo ~mode:Pr.Singletons_and_max config)
            in
            let out_seq =
              Executor.run
                ~scheduler:(A.Scheduler.first ())
                ~destination:config.Config.destination
                (Pr.algo ~mode:Pr.Singletons config)
            in
            [
              fname;
              string_of_int n;
              string_of_int out_seq.Executor.steps;
              string_of_int out_par.Executor.steps;
              string_of_int out_par.Executor.total_node_steps;
              Printf.sprintf "%.1f"
                (float_of_int out_seq.Executor.steps
                /. float_of_int (max 1 out_par.Executor.steps));
            ])
          [ 16; 32; 64; 128 ])
      [
        ("sawtooth", Generators.sawtooth);
        ("bad chain", Generators.bad_chain);
        ( "random",
          fun n -> Generators.random_connected_dag (rng (5 * n)) ~n ~extra_edges:(n / 2) );
      ]
  in
  T.print
    ~title:"sequential steps vs greedy concurrent rounds (same total work)"
    (T.make
       ~headers:[ "family"; "n"; "seq steps"; "rounds"; "total work"; "speedup" ]
       rows);
  Printf.printf
    "expected shape: total work is invariant; concurrent rounds expose the\nparallelism the paper's reverse(S) action models (sinks are independent).\n"

(* D-F9: scale — the array engine on large instances. *)

let f9 _ =
  section "D-F9" "scale: the array engines (lr_fast) on large instances";
  let module F = Lr_fast.Fast_engine in
  let time f =
    let t0 = Sys.time () in
    let r = f () in
    (r, Sys.time () -. t0)
  in
  let g = gate () in
  let rows =
    List.map
      (fun (name, inst, rule) ->
        let engine, t_build = time (fun () -> F.create rule inst) in
        let (out : F.outcome), t_run = time (fun () -> F.run engine) in
        check_finished g ~what:name ~work:out.work ~quiescent:out.quiescent
          ~oriented:out.destination_oriented;
        [
          name;
          string_of_int (Lr_graph.Digraph.num_nodes inst.Generators.graph);
          string_of_int out.work;
          string_of_bool (out.quiescent && out.destination_oriented);
          Printf.sprintf "%.0f ms" (1000.0 *. (t_build +. t_run));
          (if out.work = 0 then "-"
           else Printf.sprintf "%.0f ns" (1e9 *. t_run /. float_of_int out.work));
        ])
      (let saw2k = Generators.sawtooth 2_000 in
       let saw6k = Generators.sawtooth 6_000 in
       let chain4k = Generators.bad_chain 4_000 in
       let rand100k =
         Generators.random_connected_dag (rng 3) ~n:100_000 ~extra_edges:50_000
       in
       let disk20k = Generators.unit_disk (rng 4) ~n:20_000 ~radius:0.02 in
       [
         ("PR sawtooth 2k (10^6 steps)", saw2k, F.Partial);
         ("PR sawtooth 6k (9*10^6 steps)", saw6k, F.Partial);
         ("FR bad chain 4k (8*10^6 steps)", chain4k, F.Full);
         ("PR random 100k nodes", rand100k, F.Partial);
         ("PR unit disk 20k nodes", disk20k, F.Partial);
         ("NewPR sawtooth 6k (1.8*10^7 steps)", saw6k, F.New_pr);
         ("NewPR bad chain 4k", chain4k, F.New_pr);
         ("NewPR random 100k nodes", rand100k, F.New_pr);
       ])
  in
  T.print ~title:"array engines: work, wall time, cost per reversal"
    (T.make
       ~headers:[ "instance"; "nodes"; "work"; "correct"; "time"; "per step" ]
       rows);
  Printf.printf
    "note: every rule of the engine is differentially tested against the persistent\nautomata (same work, same per-node counts, same final graph) in\ntest_fast_engine.ml and test_fast_newpr.ml.\n";
  finish g
