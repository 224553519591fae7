(** I/O automata (Lynch, {i Distributed Algorithms}, ch. 8), restricted
    to the closed, untimed, single-component systems used in the paper:
    a state set with a unique initial state, a set of actions, an
    enabledness predicate and a transition function.

    An automaton is a first-class value so that the same machinery —
    executions, schedulers, invariant checking, simulation relations —
    applies uniformly to [PR], [OneStepPR], [NewPR], [FR] and the
    height-based variants. *)

type ('s, 'a) t = {
  name : string;
  initial : 's;
  enabled : 's -> 'a list;
      (** All actions enabled in the state, in a deterministic order. *)
  step : 's -> 'a -> 's;
      (** Apply an action.  Must only be called on enabled actions;
          implementations are encouraged to raise [Invalid_argument]
          otherwise. *)
  is_enabled : 's -> 'a -> bool;
  equal_state : 's -> 's -> bool;
  pp_state : Format.formatter -> 's -> unit;
  pp_action : Format.formatter -> 'a -> unit;
}

val make :
  name:string ->
  initial:'s ->
  enabled:('s -> 'a list) ->
  step:('s -> 'a -> 's) ->
  ?is_enabled:('s -> 'a -> bool) ->
  ?equal_state:('s -> 's -> bool) ->
  ?pp_state:(Format.formatter -> 's -> unit) ->
  ?pp_action:(Format.formatter -> 'a -> unit) ->
  unit ->
  ('s, 'a) t
(** [is_enabled] defaults to membership in [enabled] under structural
    equality (pass a monomorphic [is_enabled] on hot paths);
    [equal_state] defaults to structural equality; printers to opaque
    placeholders. *)

val quiescent : ('s, 'a) t -> 's -> bool
(** No action enabled. *)

val fold_reachable :
  ?max_states:int ->
  key:('s -> 'k) ->
  ('s, 'a) t ->
  init:'b ->
  f:('b -> 's -> 'b) ->
  ('b, string) result
(** Breadth-first fold over all reachable states in discovery order
    (the initial state first), visiting each state exactly once.  [key]
    maps a state to a canonical hash key: two states are revisited as
    one iff their keys are equal — use {!Statekey.t} for an
    allocation-light key, or any other hashable type.  States are
    {e streamed}: nothing is accumulated beyond the visited-key set, so
    exhaustive sweeps run in memory proportional to the key set, not
    the state set.  [Error] when [max_states] (default [1_000_000]) is
    exceeded. *)

val iter_reachable :
  ?max_states:int ->
  key:('s -> 'k) ->
  ('s, 'a) t ->
  f:('s -> unit) ->
  (unit, string) result

val reachable :
  ?max_states:int -> key:('s -> 'k) -> ('s, 'a) t -> ('s list, string) result
(** All reachable states as a list, in discovery order (convenience
    wrapper over {!fold_reachable}; prefer the fold for large spaces). *)
