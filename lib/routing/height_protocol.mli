(** The asynchronous, message-passing form of Gafni–Bertsekas link
    reversal — the protocol an actual ad-hoc network would run.

    Each node keeps its own height and its latest view of every
    neighbour's height; the edge to a neighbour points toward whichever
    endpoint is lower.  A node that believes it is a sink raises its
    height (by the Partial or Full reversal rule) and broadcasts the new
    height to its neighbours.  The destination never raises.

    Seeding ({!Maintenance.initial_heights}) and the raise
    ({!Maintenance.raise_height}) are the persistent height model's
    own; only the message passing is this module's.  With FIFO links
    this converges to a destination-oriented graph from any acyclic
    initial orientation; the test suite checks convergence and pins
    the raise and message counts of both rules. *)

open Lr_graph
open Linkrev

type node_state = {
  me : Node.t;
  height : Heights.pr_height;
      (** Full Reversal uses the [pa] component only ([pb] stays 0). *)
  view : Heights.pr_height Node.Map.t;  (** Latest known neighbour heights. *)
  raises : int;  (** Reversals performed by this node. *)
}

type msg = Height of Heights.pr_height

type result = {
  stats : Lr_sim.Network.stats;
  final : Digraph.t;  (** Orientation induced by the true final heights. *)
  raises_per_node : int Node.Map.t;
  total_raises : int;
  destination_oriented : bool;
}

val run :
  ?latency:(Node.t -> Node.t -> float) ->
  ?jitter:Random.State.t * float ->
  ?drop:Random.State.t * float ->
  ?beacon:float ->
  ?until:float ->
  ?max_deliveries:int ->
  rule:Maintenance.rule ->
  Config.t ->
  result
(** Default latency: constant [1.0] on every link.

    With [~drop:(rng, p)] each height announcement is lost with
    probability [p]; pair it with [~beacon:interval], which makes every
    node periodically re-broadcast its height, restoring convergence
    under loss (bound the run with [~until], since a beaconing network
    is never quiet).  Lossy runs without beacons may stall with stale
    views — the test suite demonstrates both outcomes. *)
