(* D-B1: Bechamel micro-benchmarks of per-step costs. *)

open Lr_graph
open Linkrev
open Harness
module A = Lr_automata
module T = Lr_analysis.Table

let run _ =
  section "D-B1" "per-step cost micro-benchmarks (Bechamel)";
  let open Bechamel in
  let config = Config.of_instance (Generators.sawtooth 64) in
  let pr_state = Pr.initial config in
  let np_state = New_pr.initial config in
  let h_state = Heights.pr_initial config in
  let fr_state = Full_reversal.initial config in
  (* node 1 is a sink of the sawtooth *)
  let sink = 1 in
  let tests =
    Test.make_grouped ~name:"step" ~fmt:"%s %s"
      [
        Test.make ~name:"PR reverse(u)"
          (Staged.stage (fun () ->
               ignore (Pr.apply config pr_state (Node.Set.singleton sink))));
        Test.make ~name:"NewPR reverse(u)"
          (Staged.stage (fun () -> ignore (New_pr.apply config np_state sink)));
        Test.make ~name:"FR reverse(u)"
          (Staged.stage (fun () -> ignore (Full_reversal.apply fr_state sink)));
        Test.make ~name:"PR-heights reverse(u)"
          (Staged.stage (fun () -> ignore (Heights.pr_apply config h_state sink)));
        Test.make ~name:"sinks-of-graph (n=64)"
          (Staged.stage (fun () -> ignore (Digraph.sinks pr_state.Pr.graph)));
        Test.make ~name:"acyclicity check (n=64)"
          (Staged.stage (fun () -> ignore (Digraph.is_acyclic pr_state.Pr.graph)));
        Test.make ~name:"full PR run (sawtooth n=32)"
          (Staged.stage (fun () ->
               let c = Config.of_instance (Generators.sawtooth 32) in
               ignore
                 (Executor.run
                    ~scheduler:(A.Scheduler.first ())
                    ~destination:0
                    (Pr.algo ~mode:Pr.Singletons c))));
        Test.make ~name:"full FR run (bad chain n=32)"
          (Staged.stage (fun () ->
               let c = Config.of_instance (Generators.bad_chain 32) in
               ignore
                 (Executor.run
                    ~scheduler:(A.Scheduler.first ())
                    ~destination:0 (Full_reversal.algo c))));
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let results = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun _measure table ->
      let rows =
        Hashtbl.fold
          (fun name ols acc ->
            let ns =
              match Analyze.OLS.estimates ols with
              | Some (x :: _) -> Printf.sprintf "%.1f" x
              | _ -> "?"
            in
            [ name; ns ] :: acc)
          table []
        |> List.sort compare
      in
      T.print (T.make ~headers:[ "benchmark"; "ns/run" ] rows))
    results
