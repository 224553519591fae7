(** Running a link reversal algorithm to quiescence, collecting the
    work metrics the literature compares: node steps (reversals
    performed by each node) and single-edge flips. *)

open Lr_graph

type outcome = {
  steps : int;  (** Scheduler picks (actions fired). *)
  node_steps : int Node.Map.t;
      (** Per node, how many actions it participated in. *)
  total_node_steps : int;
      (** Sum over nodes — the "total work" measure of Busch et al.;
          equals [steps] for single-node-per-step automata. *)
  edge_reversals : int;  (** Total single-edge orientation flips. *)
  final_graph : Digraph.t;
  quiescent : bool;  (** No action enabled at the end. *)
  destination_oriented : bool;
}

val run :
  ?max_steps:int ->
  ?observe:(('s, 'a) Lr_automata.Execution.step -> unit) ->
  scheduler:('s, 'a) Lr_automata.Scheduler.t ->
  destination:Node.t ->
  ('s, 'a) Algo.t ->
  outcome
(** [observe] is called once per step, in execution order, with the
    full (before, action, after) transition — the hook the trace
    recorder ({!Lr_trace.Record.persistent}) uses to serialize
    persistent runs. *)

val run_execution :
  destination:Node.t -> ('s, 'a) Algo.t -> ('s, 'a) Lr_automata.Execution.t -> outcome
(** Metrics of an already-recorded execution. *)

val work : outcome -> int
(** [total_node_steps]. *)

val pp : Format.formatter -> outcome -> unit
