(** Executions of an I/O automaton: the alternating sequence
    [s0 a1 s1 a2 s2 ...] of Lynch's model, recorded explicitly so that
    invariants and simulation relations can be checked against every
    intermediate state. *)

type ('s, 'a) step = { before : 's; action : 'a; after : 's }

type ('s, 'a) t = private {
  automaton : ('s, 'a) Automaton.t;
  init : 's;
  steps : ('s, 'a) step list;  (** In execution order. *)
}

val run :
  ?max_steps:int ->
  scheduler:('s, 'a) Scheduler.t ->
  ('s, 'a) Automaton.t ->
  ('s, 'a) t
(** Run from the initial state until the scheduler declines, no action
    is enabled, or [max_steps] (default [100_000]) steps have fired. *)

val run_from :
  scheduler:('s, 'a) Scheduler.t ->
  ('s, 'a) Automaton.t ->
  's ->
  ('s, 'a) t
(** Like {!run} with the default budget, but starting from an
    arbitrary state. *)

val replay : ('s, 'a) Automaton.t -> 's -> 'a list -> (('s, 'a) t, string) result
(** Apply a fixed action sequence, failing with a message on the first
    disabled action. *)

val final : ('s, 'a) t -> 's
val length : ('s, 'a) t -> int

val states : ('s, 'a) t -> 's list
(** All states, initial first — one more than [length]. *)

val actions : ('s, 'a) t -> 'a list
val quiescent : ('s, 'a) t -> bool
(** Did the run end because nothing was enabled? *)

