open Lr_graph
module A = Lr_automata

(* Five schedulers: lowest id first, then highest id first, round
   robin and two seeded random ones, as (first, rest). *)
let schedulers ~seed =
  let random i () = A.Scheduler.random (Random.State.make [| 0x7e; seed; i |]) in
  ( (fun () -> A.Scheduler.first ()),
    [
      (fun () -> A.Scheduler.last ());
      (fun () ->
        A.Scheduler.round_robin
          ~index:(fun (One_step_pr.Reverse u) -> u)
          ());
      random 3;
      random 4;
    ] )

let run_pr config sched =
  Executor.run ~scheduler:(sched ()) ~destination:config.Config.destination
    (One_step_pr.algo config)

let confluence ?(seed = 0) config =
  let first, rest = schedulers ~seed in
  let reference = run_pr config first in
  let mismatch =
    List.find_map
      (fun sched ->
        let out = run_pr config sched in
        if not (Digraph.equal out.Executor.final_graph reference.Executor.final_graph)
        then Some "final orientations differ between schedules"
        else if
          not
            (Node.Map.equal Int.equal out.Executor.node_steps
               reference.Executor.node_steps)
        then Some "per-node step counts differ between schedules"
        else None)
      rest
  in
  match mismatch with None -> Ok () | Some m -> Error m

let schedule_independent_work ?(seed = 0) config =
  let first, rest = schedulers ~seed in
  let reference = (run_pr config first).Executor.node_steps in
  if
    List.for_all
      (fun sched ->
        Node.Map.equal Int.equal (run_pr config sched).Executor.node_steps
          reference)
      rest
  then Ok ()
  else Error "per-node work depends on the schedule"

let good_nodes_never_reverse ?(seed = 0) config =
  let good =
    Node.Set.remove config.Config.destination
      (Digraph.reaches config.Config.initial config.Config.destination)
  in
  let check name (out : Executor.outcome) =
    match
      Node.Set.find_first_opt
        (fun u -> Node.Map.find_or ~default:0 u out.Executor.node_steps > 0)
        good
    with
    | None -> Ok ()
    | Some u ->
        Error (Format.asprintf "%s: good node %a reversed" name Node.pp u)
  in
  let rng () = A.Scheduler.random (Random.State.make [| 0x9d; seed |]) in
  match
    check "PR"
      (Executor.run ~scheduler:(rng ())
         ~destination:config.Config.destination (One_step_pr.algo config))
  with
  | Error _ as e -> e
  | Ok () ->
      check "FR"
        (Executor.run ~scheduler:(rng ())
           ~destination:config.Config.destination (Full_reversal.algo config))

let termination_upper_bound ?(seed = 0) config =
  let nb = Node.Set.cardinal (Config.bad_nodes config) in
  (* A safe envelope of the cited Θ(n_b²) worst case. *)
  let envelope = (2 * nb * (nb + 1)) + 1 in
  let rng () = A.Scheduler.random (Random.State.make [| 0xb0; seed |]) in
  let check name algo =
    let out =
      Executor.run ~max_steps:(envelope + 10) ~scheduler:(rng ())
        ~destination:config.Config.destination algo
    in
    if not out.Executor.quiescent then
      Error (Printf.sprintf "%s: still running after %d steps" name envelope)
    else if out.Executor.total_node_steps > envelope then
      Error
        (Printf.sprintf "%s: %d steps exceeds the %d envelope" name
           out.Executor.total_node_steps envelope)
    else Ok ()
  in
  match check "PR" (One_step_pr.algo config) with
  | Error _ as e -> e
  | Ok () -> check "FR" (Full_reversal.algo config)

let quiescence_is_destination_orientation ?(seed = 0) config =
  if not (Lr_graph.Undirected.is_connected (Config.skeleton config)) then
    Ok () (* the equivalence only holds on connected instances *)
  else
    let out =
      Executor.run
        ~scheduler:(A.Scheduler.random (Random.State.make [| 0x0e; seed |]))
        ~destination:config.Config.destination (One_step_pr.algo config)
    in
    if Bool.equal out.Executor.quiescent out.Executor.destination_oriented
    then Ok ()
    else Error "quiescent but not destination-oriented (or vice versa)"

let all ?seed config =
  [
    ("confluence", confluence ?seed config);
    ("schedule-independent work", schedule_independent_work ?seed config);
    ("good nodes never reverse", good_nodes_never_reverse ?seed config);
    ("termination within the quadratic envelope",
      termination_upper_bound ?seed config);
    ("quiescence = destination orientation",
      quiescence_is_destination_orientation ?seed config);
  ]
