(** Exhaustive verification of the paper's statements on small
    instances.

    The paper quantifies over {e every reachable state}; on graphs of up
    to ~5 nodes the reachable state spaces of PR, OneStepPR and NewPR
    are small enough to enumerate outright, so the invariants and the
    existential halves of Theorems 5.2 / 5.4 can be checked exactly
    rather than sampled.

    Enumeration streams states through {!Lr_automata.Automaton.fold_reachable}
    with hashed {!Lr_automata.Statekey} frontiers (no string keys, no
    materialized state lists), and the existential checks index the B
    side by orientation bitset, so each A state scans only the B states
    sharing its oriented graph. *)

type report = {
  automaton : string;
  instance_nodes : int;
  states : int;  (** Reachable states enumerated. *)
  violation : string option;  (** First violation found, if any. *)
}

val pp_report : Format.formatter -> report -> unit

val check_pr_invariants : Linkrev.Config.t -> report
(** Invariants 3.1/3.2, Corollaries 3.3/3.4, skeleton preservation and
    acyclicity (Theorem 5.5) on every reachable PR state (with
    [reverse(S)] over all sink subsets), up to 500,000 states. *)

val check_one_step_pr_invariants : Linkrev.Config.t -> report

val check_newpr_invariants : ?max_states:int -> Linkrev.Config.t -> report
(** Invariants 4.1/4.2 and Theorem 4.3 on every reachable NewPR
    state. *)

val check_termination : Linkrev.Config.t -> report
(** Strong termination of NewPR, verified exactly: the reachable state
    graph contains no cycle (every execution is finite), and every
    terminal state is destination-oriented.  Together with Theorem 4.3
    this is the full correctness statement for small instances. *)

val check_all : Linkrev.Config.t -> report list
(** The three invariant checks, then the existential halves of the
    simulation theorems over at most 200,000 states each — Theorem 5.2
    (every reachable PR state [s] has a reachable OneStepPR state [t]
    with [(s, t) ∈ R']), Theorem 5.4 (every reachable OneStepPR state
    has a reachable NewPR state related by [R]) and the future-work
    reverse direction (every reachable NewPR state has a reachable
    OneStepPR state related by the extended reverse relation) — and
    {!check_termination}, in that order. *)

val exhaustive_families : max_nodes:int -> Linkrev.Config.t list
(** Every connected DAG instance with up to [max_nodes] nodes and every
    destination choice — the input set for a full sweep. *)

type space_stats = {
  pr_states : int;
  newpr_states : int;
  longest_execution : int;
      (** Length of the longest OneStepPR execution — the instance's
          exact worst-case work, computed from the state graph. *)
}

val state_space_stats : Linkrev.Config.t -> (space_stats, string) result
(** Exact state-space measurements for one instance (small graphs, at
    most 200,000 states per automaton). *)
