(** Deterministic replay of trace files.

    Replay re-executes a trace against an independent implementation of
    the recorded engine's semantics and fails loudly on the first
    divergence.  Two targets:

    - {!file} replays on a fresh flat-array cursor: every event's
      precondition is checked — the node was a live non-destination
      sink, the reversed set is exactly what the engine would reverse
      (PR list complement, FR all, NewPR parity set), dummy steps have
      an empty parity set — and the end record's work totals and final
      orientation fingerprint must match the replayed state bit for
      bit.  The cursor's step rules are a second implementation of
      {!Lr_fast.Fast_engine}'s, not calls into it, since they are the
      oracle the engine's recordings are held to; the two share only
      {!Lr_fast.Fast_graph}'s skeleton and its [initial_slots] and
      [to_digraph] helpers.
    - {!against_automaton} replays the same trace on the {e persistent}
      automata ({!Linkrev.Pr} via [One_step_pr], {!Linkrev.Full_reversal},
      {!Linkrev.New_pr}) — the cross-engine differential check: a trace
      recorded on the flat engine must drive the reference automata to
      the same final orientation with the same work totals.

    Both are folds over the trace ({!Reader.fold}). *)

open Lr_graph

(** {1 Incremental cursor} *)

type cursor
(** Replayed engine state: orientation, in-degrees, PR lists, NewPR
    counters, and running metrics. *)

val cursor : Event.header -> (cursor, string) result
(** Initial state for the header's instance; [Error] when the embedded
    edge list contradicts its fingerprint. *)

val apply : cursor -> Event.t -> (unit, string) result
(** Checks the event's precondition and applies it. *)

val check_summary : cursor -> Event.summary -> (unit, string) result
val to_digraph : cursor -> Digraph.t

val lists : cursor -> Node.Set.t Node.Map.t
(** The PR list state as {!Linkrev.Pr.state} represents it (non-empty
    lists only) — lets {!Audit} materialize a persistent state at any
    point of the replay. *)

val counts : cursor -> int Node.Map.t
(** NewPR counters, non-zero only, as {!Linkrev.New_pr.state}. *)

val metrics : cursor -> int * int * int * int
(** [(steps, dummies, stales, edge_reversals)] so far. *)

val perturbs : cursor -> int
(** Perturbation events applied so far (maint traces only). *)

val steps_per_node : cursor -> int array

(** {1 Whole-file replay} *)

type report = {
  header : Event.header;
  summary : Event.summary;
  events : int;
  steps : int;  (** Step events (for NewPR: non-dummy steps). *)
  dummies : int;
  stales : int;
  perturbs : int;  (** Fault-injection events (maint traces only). *)
  edge_reversals : int;
  steps_per_node : int array;
  bytes : int;
}

val file : string -> (report, string) result
(** Replay [path] on a fresh cursor; first divergence (or decode error)
    is returned as [Error] with the event index. *)

type differential = {
  final_graph : Digraph.t;
  automaton_work : int;
  automaton_reversals : int;
}

val against_automaton : string -> (differential, string) result
(** Replay [path] on the corresponding persistent automaton.  [Error]
    for maint traces: the persistent automata have no fault-injection
    transition, so chaos recoveries are checked with {!file} and
    {!Audit.run} instead. *)
