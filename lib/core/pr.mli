(** The original Partial Reversal automaton — Algorithm 1 ([PR]) of the
    paper.

    State: the oriented graph plus, per node, [list\[u\]] — the
    neighbours that reversed their shared edge toward [u] since [u]'s
    last step.  Action [reverse(S)]: every node of [S] must be a sink
    ([D] excluded); each [u] in [S] reverses the edges to
    [nbrs_u \ list\[u\]] (all of [nbrs_u] when the list is full), every
    such neighbour [v] adds [u] to [list\[v\]], and [list\[u\]] is
    emptied. *)

open Lr_graph

type state = {
  graph : Digraph.t;
  lists : Node.Set.t Node.Map.t;  (** [list\[u\]]; absent = empty. *)
}

type action = Reverse of Node.Set.t  (** The paper's [reverse(S)]. *)

type mode =
  | All_subsets
      (** [enabled] lists every non-empty subset of current sinks —
          faithful to the automaton's signature; exponential, meant for
          small instances and model checking. *)
  | Singletons  (** One [reverse({u})] per sink. *)
  | Singletons_and_max
      (** Singletons plus the maximal concurrent step (all sinks at
          once). *)

val initial : Config.t -> state
val list_of : state -> Node.t -> Node.Set.t
val sinks : Config.t -> state -> Node.Set.t
(** Non-destination sinks, i.e. the nodes allowed to appear in [S]. *)

val apply : Config.t -> state -> Node.Set.t -> state
(** Effect of [reverse(S)]; assumes the precondition. *)

val automaton :
  ?mode:mode -> Config.t -> (state, action) Lr_automata.Automaton.t
(** Default mode: [All_subsets]. *)

val algo : ?mode:mode -> Config.t -> (state, action) Algo.t
val equal_state : state -> state -> bool
val canonical_key : state -> string

val state_key : state -> Lr_automata.Statekey.t
(** Hashed compact key — orientation bitset plus the non-empty lists —
    for model-checking frontiers.  Distinguishes states of one
    automaton (fixed skeleton), like {!canonical_key}, without building
    a string. *)

val pp_state : Format.formatter -> state -> unit
