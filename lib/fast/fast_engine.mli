(** The mutable, array-based link reversal engine for large instances.

    The persistent automata in [linkrev] are built for checking — every
    intermediate state is a value.  This engine is built for running:
    adjacency in flat arrays ({!Fast_graph}), a sink worklist, O(1)
    amortized edge flips; Partial Reversal on a 100k-node graph
    completes in milliseconds rather than minutes.

    One run loop serves three step rules, chosen when the engine is
    built: {!Linkrev.Pr} (list-based partial reversal, one sink at a
    time), {!Linkrev.Full_reversal}, and {!Linkrev.New_pr} (Algorithm
    2, the paper's static form of PR), whose initial in/out slot sets
    are precomputed so a dummy step — initial sources at even parity,
    initial sinks at odd — costs O(1).  The test suite checks each rule
    against its persistent automaton — same total work, per-node step
    counts and final orientation, and for NewPR acyclicity at every
    observed state — on every instance small enough to compare. *)

open Lr_graph

type rule = Partial | Full | New_pr

type outcome = {
  work : int;  (** Total node steps, NewPR's dummy steps included. *)
  steps_per_node : int array;  (** Indexed by node id. *)
  edge_reversals : int;
  quiescent : bool;  (** False only when a [max_steps] budget was hit. *)
  destination_oriented : bool;
}

(** Observation callbacks, invoked from {!run}'s step loop;
    [Lr_trace.Record] implements one that serializes the run into a
    binary trace.  The detached path ([None], the default) costs one
    branch per notification and allocates nothing.

    Callback protocol, in execution order:
    - [on_stale u] — the worklist yielded [u] but [u] is no longer a
      sink; no step fires.  Recording these preserves the exact
      scheduler decision sequence.
    - [on_step u] — a reversal step begins at sink [u]; the edges it
      reverses follow as [on_flip] calls before the next
      [on_step]/[on_dummy]/[on_stale].
    - [on_flip u i w] — the current step reversed the edge in slot [i]
      of [u]'s sorted adjacency row (its neighbour is [w]) to point
      [u -> w].  Slots arrive in ascending order within a step.
    - [on_dummy u] — NewPR dummy step at [u]: only the parity flips,
      nothing is reversed. *)
type sink = {
  on_step : int -> unit;
  on_flip : int -> int -> int -> unit;
  on_dummy : int -> unit;
  on_stale : int -> unit;
}

type t

val create : rule -> Generators.instance -> t
(** Builds the engine from an instance.  Node ids must be
    [0 .. n-1]; @raise Invalid_argument otherwise (use
    {!Lr_graph.Generators} outputs, which satisfy this). *)

val of_config : rule -> Linkrev.Config.t -> t

val count : t -> int -> int
(** NewPR's per-node counter in the current state; 0 under the other
    rules, which keep none. *)

val set_sink : t -> sink option -> unit
(** Attach observation callbacks; [None] detaches. *)

val fingerprint : t -> int64
(** {!Fast_graph.fingerprint} of the current orientation. *)

val run : ?max_steps:int -> t -> outcome
(** Run to quiescence, or for at most [max_steps] steps when the caller
    gives that budget (there is no default bound).  Running again
    continues from where the last run stopped: after [max_steps] it
    resumes, after quiescence it is a no-op. *)

val to_digraph : t -> Digraph.t
(** Snapshot of the current orientation (small instances; used by the
    differential tests). *)
