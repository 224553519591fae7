(** A generalized {e labeled reversal} automaton in the spirit of the
    Binary Link Labels (BLL) algorithm of Welch–Walter that the paper
    cites as the basis of an earlier acyclicity proof.

    Each node [u] holds a binary label for every incident edge.  When a
    sink takes a step it reverses the incident edges it labels [1] — or
    all incident edges when none is labeled [1] — then resets all its
    own labels to [1].  The [on_reversed] policy says what a neighbour
    does to its label for an edge that was just reversed toward it:

    - [Zero_out]: set it to [0].  With all-ones initial labels this is
      {e exactly} Partial Reversal ([label\[u\]\[v\] = 0] iff
      [v ∈ list\[u\]]) — checked in the test suite.
    - [Keep]: leave it alone.  With all-ones initial labels this is
      Full Reversal.

    Arbitrary initial labelings are allowed; some of them break
    acyclicity, which is the point of BLL's side condition.  The tests
    exhibit such a labeling and verify the monitor catches it. *)

open Lr_graph

type policy = Zero_out | Keep

type state = {
  graph : Digraph.t;
  labels : bool Node.Map.t Node.Map.t;
      (** [labels\[u\]\[v\]]: [u]'s label for edge [{u,v}]; absent =
          [true]. *)
}

type action = Reverse of Node.t

val label : state -> Node.t -> Node.t -> bool
val initial : ?labels:(Node.t -> Node.t -> bool) -> Config.t -> state
(** Default labeling: all ones. *)

val reversal_set : Config.t -> state -> Node.t -> Node.Set.t
(** Incident edges labeled [1], or all neighbours when none is. *)

val apply : policy -> Config.t -> state -> Node.t -> state

val automaton :
  ?labels:(Node.t -> Node.t -> bool) ->
  policy ->
  Config.t ->
  (state, action) Lr_automata.Automaton.t
