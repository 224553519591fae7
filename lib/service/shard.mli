(** One service shard: a destination-oriented link reversal instance
    kept alive under churn by {!Lr_routing.Maintenance}.

    Every [Route] response is validated in place — a returned path must
    be strictly height- and orientation-descending into the shard's
    destination, and a [No_route] answer must be honest (the source
    really has no directed path) — so the serving layer continuously
    re-checks the paper's acyclicity guarantee on live traffic instead
    of trusting the engine.  A destination crash elects a leader among
    the surviving components ({!elect}) and rebuilds the maintenance
    session toward it on the crash-stripped graph (the crashed node
    stays in the skeleton, isolated and marked dead).  On the fast tier
    both steps run on flat arrays ({!Lr_routing.Fast_maintenance.survivor_components},
    {!Lr_routing.Fast_maintenance.reroot}), the rebuild in place on the
    session's own arrays; no persistent graph is built. *)

open Lr_graph
open Lr_routing

type t

type engine_kind = Fast | Reference
(** Which maintenance tier serves this shard.  [Fast] is
    {!Lr_routing.Fast_maintenance} — flat arrays, sink worklist,
    next-hop route cache; [Reference] is the persistent
    {!Lr_routing.Maintenance}.  The two are byte-equivalent in every
    response, counter and fingerprint (the fast engine replicates the
    reference's sink-selection order exactly); [Reference] stays
    available as the differential oracle and as a fallback.

    Both tiers satisfy one internal engine signature — route, link
    down/up, heights and adoption, membership, survivors and reroot,
    work, consistency — so a shard is a single code path: {!create}
    picks the tier once and no op decides it again.  The reference
    tier's glue (the crash-stripped skeleton, a [Config]-based reroot,
    a BFS [No_route] honesty check) lives beside it in the shard, off
    the fast tier's path. *)

val create :
  ?engine:engine_kind -> rule:Maintenance.rule -> id:int -> Linkrev.Config.t -> t
(** Stabilizes the initial instance (like [Maintenance.create]).
    [engine] defaults to [Fast].  [id] is the shard's index in its
    service; the shard does not keep it.  Each node's queue on the shard's
    packet-forwarding plane holds at most 64 packets; an inject op
    drops the overflow.

    The plane ({!Lr_packet.Plane}) is created lazily at the first
    [Inject]/[Forward] op from a snapshot of the shard's current graph,
    follows every subsequent link event, and is discarded on failover
    (in-flight packets are lost with the destination).  Its height
    seeding is a deterministic topological order of the snapshot, so
    packet responses — like all others — are byte-identical across
    engine tiers. *)

val destination : t -> Node.t
val graph : t -> Digraph.t
val dead : t -> Node.Set.t
(** Crashed former destinations (isolated; excluded from elections). *)

val epoch : t -> int
(** Number of destination failovers survived. *)

val total_work : t -> int
(** Cumulative reversal steps across all epochs. *)

val cache_stats : t -> Fast_maintenance.cache_stats option
(** Next-hop cache counters of the current maintenance session; [None]
    on the reference engine (which has no cache). *)

val in_dest_component : t -> Node.t -> bool
(** Membership in the destination's component — one read of the fast
    tier's membership bitmap, {!Maintenance.dest_component} on the
    reference.  False
    for unknown nodes. *)

type outcome = {
  response : Op.response;
  work : int;  (** Reversal steps this op performed. *)
  validation_failures : int;  (** 0 or 1. *)
}

val valid_route : t -> src:Node.t -> Node.t list -> bool
(** The in-service acyclicity witness every [Route] response passes
    through: the path starts at [src], ends at the destination, and
    every hop [a -> b] is a link of the current graph, oriented
    [a -> b], with [a] strictly higher than [b]
    ({!Lr_routing.Fast_maintenance.descends},
    {!Lr_routing.Maintenance.descends}).  Strict height descent rules
    out a loop on its own, so a path that passes is loop-free. *)

val apply : t -> Op.t -> outcome
(** Execute one op ([Stats] and [Rejected] never reach a shard; [Stats]
    raises [Invalid_argument]).  Every returned route is validated; a
    failure counts in [validation_failures].  The chaos ops
    ([Corrupt]/[Flip]) adopt the faulty heights and re-stabilize
    without re-running the engine's O(n + m) {!consistent} check, which
    the tests run after every heal instead. *)

val elect : live:(Node.t -> bool) -> (int * Node.t) list -> Node.t option
(** The failover election rule both tiers share.  Given the components
    left by a destination crash as [(size, leader)] pairs (the leader
    being the component's greatest id), it picks, among those whose
    leader is [live], the one with the most members, then the greater
    leader id.  [None] when no component has a live leader. *)

val max_burst : int
(** [2^16], the most packets an [Inject] op may offer and the most
    slots a [Forward] op may run: a forward sweeps the plane once per
    slot, so its cost grows with its count.  Specs and lrw1 workloads
    above it are rejected when parsed ({!Workload.valid_op}). *)

val max_magnitude : int
(** [2^29 - 1], the largest magnitude {!hostile_height} can draw.  A
    [Corrupt] op above it answers [Noop], as a [Flip] of a bit outside
    [0 .. 61] does; chaos specs and lrw1 workloads above it are
    rejected when parsed. *)

val hostile_height : seed:int -> magnitude:int -> int -> int * int
(** The canonical hostile height assignment a [Corrupt] fault adopts: a
    pure function of [(seed, node)] with both components bounded by
    [magnitude] in absolute value.  Exposed so the chaos harness can
    drive engines outside the service through the {e same} corruption
    and compare recoveries byte for byte.
    @raise Invalid_argument when [magnitude > max_magnitude]. *)

val consistent : t -> bool
(** The shard's structural invariant, for tests: graph acyclic and the
    destination's component destination-oriented. *)
