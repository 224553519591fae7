open Lr_graph
open Linkrev
module A = Lr_automata

type report = {
  automaton : string;
  instance_nodes : int;
  states : int;
  violation : string option;
}

let pp_report ppf r =
  Format.fprintf ppf "%s on %d nodes: %d reachable states, %s" r.automaton
    r.instance_nodes r.states
    (match r.violation with None -> "OK" | Some v -> "VIOLATION: " ^ v)

let nodes_of config = Node.Set.cardinal (Config.nodes config)

(* Stream the reachable set (hashed frontier keys, no state list): count
   the states and remember the first invariant violation. *)
let check_invariant_on_reachable ~max_states ~key aut inv config name =
  let check (count, violation) s =
    let violation =
      match violation with
      | Some _ -> violation
      | None -> (
          match inv.A.Invariant.check s with
          | Ok () -> None
          | Error reason ->
              Some
                {
                  A.Invariant.invariant = inv.A.Invariant.name;
                  state_index = count;
                  reason;
                })
    in
    (count + 1, violation)
  in
  match A.Automaton.fold_reachable ~max_states ~key aut ~init:(0, None) ~f:check with
  | Error e ->
      {
        automaton = name;
        instance_nodes = nodes_of config;
        states = 0;
        violation = Some e;
      }
  | Ok (states, violation) ->
      {
        automaton = name;
        instance_nodes = nodes_of config;
        states;
        violation =
          Option.map
            (fun v -> Format.asprintf "%a" A.Invariant.pp_violation v)
            violation;
      }

let check_pr_invariants config =
  check_invariant_on_reachable ~max_states:500_000 ~key:Pr.state_key
    (Pr.automaton ~mode:Pr.All_subsets config)
    (Invariants.pr_all config) config "PR invariants"

let check_one_step_pr_invariants config =
  check_invariant_on_reachable ~max_states:500_000 ~key:Pr.state_key
    (One_step_pr.automaton config)
    (Invariants.pr_all config) config "OneStepPR invariants"

let check_newpr_invariants ?(max_states = 500_000) config =
  check_invariant_on_reachable ~max_states ~key:New_pr.state_key
    (New_pr.automaton config)
    (Invariants.newpr_all config) config "NewPR invariants"

(* For every reachable state of [aut_a], some reachable state of
   [aut_b] satisfies [related].

   Every relation checked here entails equal oriented graphs, so the
   B side is indexed by its graph's orientation bitset ([bits_a]/
   [bits_b] must be that projection): each A state only scans the B
   states sharing its orientation — near-linear overall, where the old
   version rescanned the whole B list per A state, O(|A|·|B|). *)
let check_existential ~max_states ~key_a ~key_b ~bits_a ~bits_b aut_a aut_b
    related config name =
  let fail violation =
    {
      automaton = name;
      instance_nodes = nodes_of config;
      states = 0;
      violation = Some violation;
    }
  in
  let index = Hashtbl.create 1024 in
  let index_b () =
    A.Automaton.iter_reachable ~max_states ~key:key_b aut_b ~f:(fun t ->
        let bits = bits_b t in
        Hashtbl.replace index bits
          (t :: Option.value ~default:[] (Hashtbl.find_opt index bits)))
  in
  match index_b () with
  | Error e -> fail e
  | Ok () -> (
      let check (count, violation) s =
        let violation =
          match violation with
          | Some _ -> violation
          | None ->
              let candidates =
                Option.value ~default:[] (Hashtbl.find_opt index (bits_a s))
              in
              if List.exists (fun t -> related s t) candidates then None
              else
                Some
                  (Format.asprintf "state %a has no related partner"
                     aut_a.A.Automaton.pp_state s)
        in
        (count + 1, violation)
      in
      match
        A.Automaton.fold_reachable ~max_states ~key:key_a aut_a ~init:(0, None)
          ~f:check
      with
      | Error e -> fail e
      | Ok (states, violation) ->
          {
            automaton = name;
            instance_nodes = nodes_of config;
            states;
            violation;
          })

let pr_bits (s : Pr.state) = Digraph.orientation_bits s.Pr.graph
let newpr_bits (t : New_pr.state) = Digraph.orientation_bits t.New_pr.graph

let check_theorem_5_2 config =
  check_existential ~max_states:200_000 ~key_a:Pr.state_key ~key_b:Pr.state_key
    ~bits_a:pr_bits ~bits_b:pr_bits
    (Pr.automaton ~mode:Pr.All_subsets config)
    (One_step_pr.automaton config)
    (fun s t -> Result.is_ok ((Simulation_rel.r_prime config).relation s t))
    config "Theorem 5.2 (R' existence)"

let check_theorem_5_4 config =
  check_existential ~max_states:200_000 ~key_a:Pr.state_key ~key_b:New_pr.state_key
    ~bits_a:pr_bits ~bits_b:newpr_bits
    (One_step_pr.automaton config)
    (New_pr.automaton config)
    (fun s t -> Result.is_ok ((Simulation_rel.r config).relation s t))
    config "Theorem 5.4 (R existence)"

let check_reverse_theorem config =
  check_existential ~max_states:200_000 ~key_a:New_pr.state_key ~key_b:Pr.state_key
    ~bits_a:newpr_bits ~bits_b:pr_bits
    (New_pr.automaton config)
    (One_step_pr.automaton config)
    (fun t s -> Result.is_ok ((Simulation_rel.r_reverse config).relation t s))
    config "Reverse direction (future work)"

(* Explicit state graph of an automaton: hashed keys plus successor
   lists, streamed straight into the table. *)
let state_graph ~max_states ~key (aut : ('s, 'a) A.Automaton.t) =
  let succs = A.Statekey.Table.create 1024 in
  let record keys s =
    let ks = key s in
    let outs =
      List.map (fun a -> key (aut.A.Automaton.step s a))
        (aut.A.Automaton.enabled s)
    in
    A.Statekey.Table.replace succs ks (s, outs);
    ks :: keys
  in
  match A.Automaton.fold_reachable ~max_states ~key aut ~init:[] ~f:record with
  | Error e -> Error e
  | Ok keys -> Ok (List.rev keys, succs)

(* Longest path in a DAG of states; [None] when a cycle exists. *)
let longest_path keys succs =
  let memo = A.Statekey.Table.create (List.length keys) in
  let exception Cycle in
  let rec depth k =
    match A.Statekey.Table.find_opt memo k with
    | Some `Visiting -> raise Cycle
    | Some (`Done d) -> d
    | None ->
        A.Statekey.Table.replace memo k `Visiting;
        let _, outs = A.Statekey.Table.find succs k in
        let d =
          List.fold_left (fun acc k' -> max acc (1 + depth k')) 0 outs
        in
        A.Statekey.Table.replace memo k (`Done d);
        d
  in
  try Some (List.fold_left (fun acc k -> max acc (depth k)) 0 keys)
  with Cycle -> None

let check_termination config =
  let name = "Termination (state graph acyclic, terminal states oriented)" in
  let fail violation =
    {
      automaton = name;
      instance_nodes = nodes_of config;
      states = 0;
      violation = Some violation;
    }
  in
  match
    state_graph ~max_states:200_000 ~key:Pr.state_key
      (One_step_pr.automaton config)
  with
  | Error e -> fail e
  | Ok (keys, succs) -> (
      match longest_path keys succs with
      | None -> fail "state graph has a cycle: an infinite execution exists"
      | Some _ ->
          let bad_terminal =
            List.find_opt
              (fun k ->
                let (s : Pr.state), outs = A.Statekey.Table.find succs k in
                match outs with
                | _ :: _ -> false
                | [] ->
                    not
                      (Lr_graph.Digraph.is_destination_oriented s.Pr.graph
                         config.Config.destination))
              keys
          in
          {
            automaton = name;
            instance_nodes = nodes_of config;
            states = List.length keys;
            violation =
              Option.map
                (fun k ->
                  let s, _ = A.Statekey.Table.find succs k in
                  Format.asprintf
                    "terminal state not destination-oriented: %a" Pr.pp_state
                    s)
                bad_terminal;
          })

type space_stats = {
  pr_states : int;
  newpr_states : int;
  longest_execution : int;
}

let state_space_stats config =
  let ( let* ) = Result.bind in
  let max_states = 200_000 in
  let* keys, succs =
    state_graph ~max_states ~key:Pr.state_key (One_step_pr.automaton config)
  in
  let* longest =
    Option.to_result ~none:"cyclic state graph" (longest_path keys succs)
  in
  let* newpr_states =
    A.Automaton.fold_reachable ~max_states ~key:New_pr.state_key
      (New_pr.automaton config) ~init:0 ~f:(fun n _ -> n + 1)
  in
  Ok { pr_states = List.length keys; newpr_states; longest_execution = longest }

let check_all config =
  [
    check_pr_invariants config;
    check_one_step_pr_invariants config;
    check_newpr_invariants config;
    check_theorem_5_2 config;
    check_theorem_5_4 config;
    check_reverse_theorem config;
    check_termination config;
  ]

let exhaustive_families ~max_nodes =
  let rec sizes n = if n > max_nodes then [] else n :: sizes (n + 1) in
  sizes 2
  |> List.concat_map (fun n ->
         Generators.all_dag_instances n |> List.map Config.of_instance)
