open Lr_graph
module Simulation = Lr_automata.Simulation

let graphs_equal g1 g2 =
  if Digraph.equal g1 g2 then Ok ()
  else Error "oriented graphs differ"

let lists_equal (s : Pr.state) (t : Pr.state) =
  let bad u =
    if Node.Set.equal (Pr.list_of s u) (Pr.list_of t u) then None else Some u
  in
  let nodes =
    Node.Set.union (Digraph.nodes s.Pr.graph) (Digraph.nodes t.Pr.graph)
  in
  Node.Set.fold
    (fun u acc -> match acc with Some _ -> acc | None -> bad u)
    nodes None

(* R' (Section 5.2): equal graphs and equal lists. *)
let r_prime_rel (s : Pr.state) (t : One_step_pr.state) =
  match graphs_equal s.Pr.graph t.Pr.graph with
  | Error _ as e -> e
  | Ok () -> (
      match lists_equal s t with
      | None -> Ok ()
      | Some u -> Error (Format.asprintf "lists differ at node %a" Node.pp u))

let r_prime config =
  {
    Simulation.name = "R' (PR -> OneStepPR)";
    relation = r_prime_rel;
    initial_b = One_step_pr.initial config;
    correspond =
      (fun _s (Pr.Reverse set) _t ->
        List.map (fun u -> One_step_pr.Reverse u) (Node.Set.elements set));
  }

(* R (Section 5.3): equal graphs; even parity => list ⊆ out-nbrs, odd
   parity => list ⊆ in-nbrs. *)
let r_rel config (s : One_step_pr.state) (t : New_pr.state) =
  match graphs_equal s.Pr.graph t.New_pr.graph with
  | Error _ as e -> e
  | Ok () ->
      let bad u =
        let lst = Pr.list_of s u in
        match New_pr.parity t u with
        | New_pr.Even ->
            if Node.Set.subset lst (Config.out_nbrs config u) then None
            else Some (u, "even parity but list not within out-nbrs")
        | New_pr.Odd ->
            if Node.Set.subset lst (Config.in_nbrs config u) then None
            else Some (u, "odd parity but list not within in-nbrs")
      in
      let res =
        Node.Set.fold
          (fun u acc -> match acc with Some _ -> acc | None -> bad u)
          (Config.nodes config) None
      in
      (match res with
      | None -> Ok ()
      | Some (u, what) -> Error (Format.asprintf "node %a: %s" Node.pp u what))

(* Lemma 5.3's construction: one NewPR step, except when list[w] =
   nbrs_w where a dummy step precedes the real one. *)
let r_correspond config (s : One_step_pr.state) (One_step_pr.Reverse w) _t =
  if Node.Set.equal (Pr.list_of s w) (Config.nbrs config w) then
    [ New_pr.Reverse w; New_pr.Reverse w ]
  else [ New_pr.Reverse w ]

let r config =
  {
    Simulation.name = "R (OneStepPR -> NewPR)";
    relation = r_rel config;
    initial_b = New_pr.initial config;
    correspond = r_correspond config;
  }

(* Composition R' ; R — PR directly to NewPR.  For reverse(S), each
   member contributes its one- or two-step NewPR sequence; the list used
   to decide one-vs-two is the PR pre-state list, which is correct
   because members of S are pairwise non-adjacent and cannot change one
   another's lists. *)
let r_composed config =
  let rel (s : Pr.state) (t : New_pr.state) = r_rel config s t in
  {
    Simulation.name = "R' ; R (PR -> NewPR)";
    relation = rel;
    initial_b = New_pr.initial config;
    correspond =
      (fun (s : Pr.state) (Pr.Reverse set) _t ->
        Node.Set.elements set
        |> List.concat_map (fun w ->
               if Node.Set.equal (Pr.list_of s w) (Config.nbrs config w) then
                 [ New_pr.Reverse w; New_pr.Reverse w ]
               else [ New_pr.Reverse w ]));
  }

(* The future-work direction (paper, Section 6): NewPR -> OneStepPR.
   The relation is R⁻¹ extended with two "mid-dummy" disjuncts: an
   initial source (in-nbrs = ∅) whose parity has flipped to odd, or an
   initial sink (out-nbrs = ∅) back at even parity after at least one
   step, may still hold a full list — the OneStepPR side simply has not
   (and need not) mirror the dummy step. *)
let r_reverse_rel config (t : New_pr.state) (s : One_step_pr.state) =
  match graphs_equal t.New_pr.graph s.Pr.graph with
  | Error _ as e -> e
  | Ok () ->
      let ok u =
        let lst = Pr.list_of s u in
        let ins = Config.in_nbrs config u
        and outs = Config.out_nbrs config u
        and nbrs = Config.nbrs config u in
        match New_pr.parity t u with
        | New_pr.Even ->
            Node.Set.subset lst outs
            || Node.Set.is_empty outs
               && New_pr.count t u > 0
               && Node.Set.equal lst nbrs
        | New_pr.Odd ->
            Node.Set.subset lst ins
            || (Node.Set.is_empty ins && Node.Set.equal lst nbrs)
      in
      let bad =
        Node.Set.fold
          (fun u acc ->
            match acc with
            | Some _ -> acc
            | None -> if ok u then None else Some u)
          (Config.nodes config) None
      in
      (match bad with
      | None -> Ok ()
      | Some u ->
          Error
            (Format.asprintf "node %a violates the reverse relation" Node.pp u))

let r_reverse config =
  {
    Simulation.name = "R-reverse (NewPR -> OneStepPR)";
    relation = r_reverse_rel config;
    initial_b = One_step_pr.initial config;
    correspond =
      (fun (t : New_pr.state) (New_pr.Reverse w) _s ->
        if New_pr.is_dummy_step config t w then []
        else [ One_step_pr.Reverse w ]);
  }

let check_r_prime ~scheduler config =
  let exec =
    Lr_automata.Execution.run ~scheduler (Pr.automaton config)
  in
  Simulation.check_guided ~b:(One_step_pr.automaton config) (r_prime config)
    exec

let check_r ~scheduler config =
  let exec =
    Lr_automata.Execution.run ~scheduler
      (One_step_pr.automaton config)
  in
  Simulation.check_guided ~b:(New_pr.automaton config) (r config) exec

let check_r_composed ~scheduler config =
  let exec =
    Lr_automata.Execution.run ~scheduler (Pr.automaton config)
  in
  Simulation.check_guided ~b:(New_pr.automaton config) (r_composed config)
    exec

let check_r_reverse ~scheduler config =
  let exec =
    Lr_automata.Execution.run ~scheduler (New_pr.automaton config)
  in
  Simulation.check_guided ~b:(One_step_pr.automaton config) (r_reverse config)
    exec
