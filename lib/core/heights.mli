(** Gafni–Bertsekas height-based formulations of Full and Partial
    Reversal (the 1981 originals the paper's Section 1 recalls).

    Every node carries a totally ordered {e height}; the edge [{u,v}] is
    directed from the higher node to the lower one.  A sink raises its
    height:

    - {b FR pair heights} [(a, id)]: [a := 1 + max] over neighbours —
      all incident edges flip outgoing.
    - {b PR triple heights} [(a, b, id)]: [a := 1 + min] over
      neighbours; if some neighbour now shares the new [a], [b] drops
      below the smallest such [b] — exactly the edges to
      minimum-[a] neighbours flip.

    The original acyclicity proof assigns these labels to nodes; the
    paper replaces that argument.  Here the height automata serve as
    independent reference implementations: the test suite checks they
    stay step-for-step equivalent to the list-based {!Pr} and to
    {!Full_reversal}, and that the stored orientation always agrees
    with the height order. *)

open Lr_graph

type fr_height = { fa : int; fid : Node.t }
type pr_height = { pa : int; pb : int; pid : Node.t }

val compare_fr_height : fr_height -> fr_height -> int
(** Lexicographic on [(fa, fid)]. *)

val compare_pr_height : pr_height -> pr_height -> int
(** Lexicographic on [(pa, pb, pid)]. *)

type fr_state = { fgraph : Digraph.t; fheights : fr_height Node.Map.t }
type pr_state = { pgraph : Digraph.t; pheights : pr_height Node.Map.t }
type action = Reverse of Node.t

(** {1 Full reversal} *)

val fr_initial : Config.t -> fr_state
(** Heights realizing [G'_init]: [fa u = n - rank u] in the config's
    embedding. *)

val fr_apply : Config.t -> fr_state -> Node.t -> fr_state
val fr_automaton : Config.t -> (fr_state, action) Lr_automata.Automaton.t
val fr_algo : Config.t -> (fr_state, action) Algo.t

val fr_consistent : fr_state -> bool
(** The stored orientation equals the one induced by the heights. *)

(** {1 Partial reversal} *)

val pr_initial : Config.t -> pr_state
(** [pa u = 0], [pb u = -rank u]. *)

val pr_apply : Config.t -> pr_state -> Node.t -> pr_state
val pr_automaton : Config.t -> (pr_state, action) Lr_automata.Automaton.t
val pr_algo : Config.t -> (pr_state, action) Algo.t
val pr_consistent : pr_state -> bool
