(** A per-destination packet-forwarding plane: bounded FIFO queues on
    every node, discrete-time forwarding along the current DAG
    orientation, and queue-differential link reversal — the LR +
    backpressure hybrid of Rai et al. ("Loop-Free Backpressure Routing
    Using Link-Reversal Algorithms", PAPERS.md).

    {2 Model}

    Orientation is {e derived} from per-node heights [(pa, pb, id)]
    compared lexicographically, exactly like the maintenance engines:
    every present edge points from its higher endpoint to its lower
    one, so the routing graph is structurally acyclic at all times — a
    reversal is a height raise, never an edge flip that could close a
    cycle.  Heights seed either from a deterministic topological order
    of the instance's initial orientation (the default, identical
    across maintenance-engine tiers) or from stabilized engine heights
    via {!Lr_routing.Fast_maintenance.height}.

    Each {!slot} is one synchronous round:

    + {b transmit} — every node with queued packets sends up to [cap]
      of them to the out-neighbour with the maximum positive queue
      differential (ties to the lower id; the destination counts as an
      always-empty, always-willing queue).  Arrivals are staged and
      merged after the sweep, so a round's decisions depend only on the
      state at its start plus earlier nodes' sends — deterministic and
      independent of the caller's parallelism.
    + {b reverse} — a node that held packets but transmitted nothing
      {e for orientational reasons} (no out-edge, or no out-neighbour
      with a positive differential) takes one partial-reversal height
      raise.  A node blocked only by full downstream queues does {e
      not} reverse: that is congestion, and backpressure handles it by
      waiting.

    Link churn ({!remove_link} / {!add_link}) changes the skeleton in
    O(degree); queued packets stay put and, if their region lost its
    route, reversals re-point the DAG around the outage.

    {2 Birth distances}

    Every accepted packet records its source's shortest hop distance
    to the destination over the skeleton at injection; [dist_sum] and
    [hops_sum] ({!counters}) give the mean path stretch.  One BFS from
    the destination serves every inject between two link changes: a
    link change only marks it stale, and an inject resumes it just
    until the source is labelled.  So an inject costs O(accepted) plus
    the part of that BFS it resumes — O(n + m) summed over all injects
    between two link changes, nothing for a source already labelled —
    and each birth distance equals a full BFS's. *)

type t

val create :
  ?qcap:int ->
  ?cap:int ->
  ?heights:int array * int array ->
  Linkrev.Config.t ->
  t
(** A plane for [config]'s destination over its skeleton.  [qcap]
    (default 64) bounds every per-node queue; [cap] (default 1) is the
    per-node transmissions per slot.  [heights] — arrays of [(pa, pb)]
    keyed by node id, copied — overrides the default topological
    seeding.  @raise Invalid_argument on non-positive [qcap]/[cap], on
    node ids outside [0 .. n-1], or on mis-sized height arrays. *)

val num_nodes : t -> int
val destination : t -> int

(** {2 Traffic} *)

val inject : t -> src:int -> count:int -> int * int
(** [inject t ~src ~count] offers [count] packets at [src]; returns
    [(accepted, dropped)] — packets refused by a full source queue are
    dropped on the spot.  Injection at the destination delivers
    immediately (zero hops).  O(accepted) plus the birth-distance BFS
    it resumes (see above); a source the skeleton does not connect to
    the destination gives its packets birth distance 0.
    @raise Invalid_argument on an out-of-range [src] or negative
    [count]. *)

val slot : t -> unit
(** One synchronous transmit-then-reverse round (see above); its
    deliveries and reversals show in {!counters}. *)

(** {2 Topology churn} *)

val mem_edge : t -> int -> int -> bool
val remove_link : t -> int -> int -> unit
(** @raise Invalid_argument if absent. *)

val add_link : t -> int -> int -> unit
(** @raise Invalid_argument if present or a self-loop. *)

(** {2 Observation} *)

val edge_out : t -> int -> int -> bool
(** Derived orientation: the (present) edge [{u,v}] points [u -> v]. *)

val queued : t -> int
(** Packets currently in flight (sum of all queue lengths). *)

val high_water : t -> int
(** Maximum single-queue occupancy ever observed. *)

type counters = {
  injected : int;  (** Accepted into a queue (or zero-hop delivered). *)
  dropped : int;
  delivered : int;
  reversals : int;
  hops_sum : int;  (** Over delivered packets with a positive birth distance. *)
  dist_sum : int;  (** Matching shortest-path hop distances at injection. *)
  slots : int;
}

val counters : t -> counters

val consistent : t -> bool
(** Accounting audit for tests: [injected = delivered + queued], every
    queue within bound, and no packet id queued twice. *)
