(** Full Reversal (Gafni–Bertsekas): a sink reverses {e all} of its
    incident edges.  The baseline the paper compares Partial Reversal
    against; its acyclicity argument (last node to step becomes a
    source) is checked in the test suite. *)

open Lr_graph

type state = { graph : Digraph.t }
type action = Reverse of Node.t

val initial : Config.t -> state
val apply : state -> Node.t -> state
val automaton : Config.t -> (state, action) Lr_automata.Automaton.t
val algo : Config.t -> (state, action) Algo.t
