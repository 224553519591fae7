(** The paper's simulation relations (Section 5), as executable guided
    simulations.

    - [r_prime]: the relation [R'] from [PR] to [OneStepPR] — equal
      oriented graphs and equal lists; a [reverse(S)] step corresponds
      to one [reverse(u)] per member of [S] (Lemma 5.1).
    - [r]: the relation [R] from [OneStepPR] to [NewPR] — equal graphs
      and the parity/list containment conditions; a [reverse(w)] step
      corresponds to one [NewPR] step, or two when [list\[w\] = nbrs_w]
      (a dummy step followed by a real one; Lemma 5.3).
    - [r_composed]: the composition, directly relating [PR] to [NewPR]
      (the route Theorem 5.5 takes).
    - [r_reverse]: the {e future-work} direction from the paper's
      conclusion: a relation from [NewPR] back to [OneStepPR].  Dummy
      steps correspond to the empty sequence, so the relation extends
      [R⁻¹] with two "mid-dummy" disjuncts for initial sources/sinks
      whose parity has flipped but whose list is still full. *)

open Lr_graph
module Simulation = Lr_automata.Simulation

val graphs_equal : Digraph.t -> Digraph.t -> (unit, string) result

val r_prime :
  Config.t ->
  (Pr.state, Pr.action, One_step_pr.state, One_step_pr.action)
  Simulation.guided

val r :
  Config.t ->
  (One_step_pr.state, One_step_pr.action, New_pr.state, New_pr.action)
  Simulation.guided

val r_composed :
  Config.t ->
  (Pr.state, Pr.action, New_pr.state, New_pr.action) Simulation.guided

val r_reverse :
  Config.t ->
  (New_pr.state, New_pr.action, One_step_pr.state, One_step_pr.action)
  Simulation.guided

(** {1 Convenience checkers}

    Each runs the left automaton with the given scheduler and verifies
    the guided simulation along the whole execution, returning the
    matching right-hand execution. *)

val check_r_prime :
  scheduler:(Pr.state, Pr.action) Lr_automata.Scheduler.t ->
  Config.t ->
  ((One_step_pr.state, One_step_pr.action) Lr_automata.Execution.t, string)
  result

val check_r :
  scheduler:(One_step_pr.state, One_step_pr.action) Lr_automata.Scheduler.t ->
  Config.t ->
  ((New_pr.state, New_pr.action) Lr_automata.Execution.t, string) result

val check_r_composed :
  scheduler:(Pr.state, Pr.action) Lr_automata.Scheduler.t ->
  Config.t ->
  ((New_pr.state, New_pr.action) Lr_automata.Execution.t, string) result

val check_r_reverse :
  scheduler:(New_pr.state, New_pr.action) Lr_automata.Scheduler.t ->
  Config.t ->
  ((One_step_pr.state, One_step_pr.action) Lr_automata.Execution.t, string)
  result
