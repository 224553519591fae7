open Lr_graph
open Linkrev

type algorithm = FR | PR | NewPR | FR_heights | PR_heights

let algorithm_name = function
  | FR -> "FR"
  | PR -> "PR"
  | NewPR -> "NewPR"
  | FR_heights -> "FR-heights"
  | PR_heights -> "PR-heights"

let run_one ?(seed = 0) algorithm config =
  let rng = Random.State.make [| 0x5eed; seed |] in
  let scheduler () = Lr_automata.Scheduler.random rng in
  let destination = config.Config.destination in
  match algorithm with
  | FR ->
      Executor.run ~scheduler:(scheduler ()) ~destination
        (Full_reversal.algo config)
  | PR ->
      Executor.run ~scheduler:(scheduler ()) ~destination
        (Pr.algo ~mode:Pr.Singletons config)
  | NewPR ->
      Executor.run ~scheduler:(scheduler ()) ~destination
        (New_pr.algo config)
  | FR_heights ->
      Executor.run ~scheduler:(scheduler ()) ~destination
        (Heights.fr_algo config)
  | PR_heights ->
      Executor.run ~scheduler:(scheduler ()) ~destination
        (Heights.pr_algo config)

type row = {
  n : int;
  nodes : int;
  bad : int;
  work : int;
  edge_reversals : int;
  quiescent : bool;
  oriented : bool;
}

let sweep ?seed ?(jobs = 1) algorithm ~family ~sizes () =
  let sizes = Array.of_list sizes in
  let one n =
    let inst = family n in
    let config = Config.of_instance inst in
    let out = run_one ?seed algorithm config in
    {
      n;
      nodes = Node.Set.cardinal (Config.nodes config);
      bad = Node.Set.cardinal (Config.bad_nodes config);
      work = out.Executor.total_node_steps;
      edge_reversals = out.Executor.edge_reversals;
      quiescent = out.Executor.quiescent;
      oriented = out.Executor.destination_oriented;
    }
  in
  Array.to_list
    (* lr:owner trial: each parallel trial builds and mutates a private
       engine instance; nothing outlives its slot in the result array. *)
    (Lr_parallel.Pool.map_range ~jobs (Array.length sizes) (fun i ->
         one sizes.(i)))

let sweep_fast ?(jobs = 1) algorithm ~family ~sizes () =
  let module F = Lr_fast.Fast_engine in
  let rule =
    match algorithm with
    | FR -> F.Full
    | PR -> F.Partial
    | NewPR -> F.New_pr
    | FR_heights | PR_heights ->
        invalid_arg
          (Printf.sprintf "Work.sweep_fast: no fast engine for %s"
             (algorithm_name algorithm))
  in
  let sizes = Array.of_list sizes in
  let one n =
    let inst = family n in
    let config = Config.of_instance inst in
    let out = F.run (F.of_config rule config) in
    {
      n;
      nodes = Node.Set.cardinal (Config.nodes config);
      bad = Node.Set.cardinal (Config.bad_nodes config);
      work = out.F.work;
      edge_reversals = out.F.edge_reversals;
      quiescent = out.F.quiescent;
      oriented = out.F.destination_oriented;
    }
  in
  Array.to_list
    (* lr:owner trial: each parallel trial builds and mutates a private
       engine instance; nothing outlives its slot in the result array. *)
    (Lr_parallel.Pool.map_range ~jobs (Array.length sizes) (fun i ->
         one sizes.(i)))

let exponent rows =
  rows
  |> List.filter_map (fun r ->
         if r.bad > 0 && r.work > 0 then
           Some (float_of_int r.bad, float_of_int r.work)
         else None)
  |> Stats.growth_exponent

let rows_to_table algorithm rows =
  Table.make
    ~headers:[ "algorithm"; "n"; "nodes"; "bad"; "work"; "edge flips"; "oriented" ]
    (List.map
       (fun r ->
         [
           algorithm_name algorithm;
           string_of_int r.n;
           string_of_int r.nodes;
           string_of_int r.bad;
           string_of_int r.work;
           string_of_int r.edge_reversals;
           string_of_bool (r.quiescent && r.oriented);
         ])
       rows)
