(** The fast tier of {!Maintenance}: TORA-style repair on flat arrays.

    Semantically this engine {e is} [Maintenance] — same PR/FR height
    raises, same minimum-id sink selection order, same stabilization
    budget, same partition reporting — so every response, counter and
    fingerprint produced through it is byte-identical to the persistent
    reference, which the test suite and the D-S2 bench keep as a
    differential oracle.  Mechanically it is built for serving:

    - heights are two int arrays [(pa, pb)] keyed by node slot, and the
      edge orientation is {e derived} from the height order on demand
      (the maintenance invariant: every link points from its higher
      endpoint to its lower one at all times), so there are no
      orientation bits to keep in sync;
    - adjacency is a {!Lr_fast.Fast_graph.Dyn} flat array that survives
      link churn in O(degree) per change; every neighbour loop fetches
      a node's row once ({!Lr_fast.Fast_graph.Dyn.row}) and compares
      heights with this module's own test on int arrays, so reading a
      neighbour and testing its height call into no other module;
    - sinks are found by a min-id {e worklist} (a two-level bitset, one
      bit per id plus one summary bit per 32-id word, whose pop answers
      the lowest queued id; lazily revalidated) seeded from the
      endpoints of each topology change and refilled only with the
      neighbours of just-reversed nodes — no per-step component rescan,
      and about [n/31] words where a heap and its membership bits took
      [2n];
    - membership in the destination's component is one bit per node,
      exact at all times, plus the component's size (which sets the
      stabilization budget).  Repair, here as in the reference, never
      enters a cut-off side, so these are the only component facts
      kept.  Between operations every member descends strictly in
      height to the destination, so a member lower than the node that
      lost a link still reaches it: a link-down inside the component
      probes nothing while its upper endpoint keeps an out-edge, and
      otherwise runs a one-sided BFS from that endpoint that stops at
      the first lower node or lists, and unmarks, exactly the side it
      cut off; a node failure probes from each upstream neighbour,
      bounded by the failed node.  A link-down inside a cut-off side
      changes nothing, and a link-up that reattaches a side marks it
      by BFS and queues the sinks it left unrepaired;
    - a per-node {e next-hop cache} makes repeated route queries on a
      quiescent engine O(path length) array hops with zero height
      comparisons; entries are invalidated exactly where a height or an
      incident edge changed — reattaching a side invalidates nothing. *)

open Lr_graph
open Linkrev

type t

val create : Maintenance.rule -> Config.t -> t
(** Starts from [G'_init] and stabilizes it, like
    {!Maintenance.create}.  The configuration enters once, as the
    skeleton's sorted rows ({!Lr_graph.Undirected.rows}, one fold of its
    adjacency map), which the dynamic graph adopts
    ({!Lr_fast.Fast_graph.Dyn.of_rows}), and as ranks from one pass over
    the embedding's order; then O(n + m) seeding and the initial
    stabilization, which dominates at n = 10{^5}.  Node ids must be
    [0 .. n-1] ({!Lr_graph.Generators} outputs and service shard
    configs satisfy this); @raise Invalid_argument otherwise. *)

val destination : t -> Node.t
val num_nodes : t -> int
val mem_node : t -> Node.t -> bool
val mem_edge : t -> Node.t -> Node.t -> bool

val edge_out : t -> Node.t -> Node.t -> bool
(** [edge_out t u v] iff the (present) edge [{u,v}] is directed
    [u -> v] — i.e. [u]'s height is the greater one, in the order of
    {!Maintenance.compare_heights}. *)

val descends : t -> Node.t -> Node.t -> bool
(** [descends t u v] iff [{u,v}] is a link and [u] is strictly higher
    than [v] — the one check a route hop must pass.  The orientation is
    the height order, so that is also the link's direction [u -> v];
    {!Maintenance.descends} checks the two separately. *)

val height : t -> Node.t -> int * int
(** The node's current [(pa, pb)] height pair.  The third lexicographic
    component is the node id itself.  This is the seeding hook for
    layers that derive their own orientation from the engine's
    stabilized heights (e.g. {e lr_packet} forwarding planes). *)

val total_work : t -> int
val is_destination_oriented : t -> bool

val in_dest_component : t -> Node.t -> bool
(** Membership in the destination's component — one array read; false
    for unknown nodes.  Between operations the engine is stabilized and
    its component destination-oriented, so this also answers "does a
    directed path to the destination exist" without a BFS — the serving
    layer's fast [No_route] honesty check. *)

val component_size : t -> int
(** Size of the destination's component. *)

type index_stats = { slots : int; rebuilds : int }

val index_stats : t -> index_stats
(** Always [{slots = n; rebuilds = 0}]: the membership bitmap has one
    cell per node and is never rebuilt.  Kept only for the
    benchmark's [engine.uf_*] per-layer metrics, and to be dropped
    together with them. *)

val graph : t -> Digraph.t
(** Materialized snapshot of the current oriented topology (orientation
    derived from heights).  For tests, oracles and the packet plane's
    one-off seeding — no serving path calls it per op, and failover
    ({!reroot}) never does. *)

val survivor_components : t -> (int * Node.t) list
(** The connected components the topology falls into when the
    destination and its links are removed, as [(size, max id)] pairs,
    one per component, in ascending order of smallest member.  The
    election input of a destination crash; one O(n + m) labelling BFS.
    The destination itself is in no component. *)

val reroot : t -> leader:Node.t -> unit
(** [reroot t ~leader] turns [t] into the session a destination crash
    leaves behind, in place, and so consumes [t]'s current session: the
    old destination's links are stripped, and [t] is reseeded toward
    [leader] and stabilized from a topological order of the stripped,
    currently derived orientation (Thm 4.3/5.5 keeps that orientation
    acyclic, so the order always exists).  The result is identical —
    heights, adjacency order, work, routes, cache counters, membership —
    to {!create} on [Config.make] of the stripped {!graph} with
    destination [leader], without materializing either, and without
    allocating beyond a constant number of words: O(n + m) plus the
    stabilization.  The rule carries over; work and cache counters
    restart from zero; the observer is detached.  Read what is still
    wanted of the old session (its destination, its {!total_work})
    before the call.
    @raise Invalid_argument, leaving [t] unchanged, if [leader] is
    unknown or is the current destination. *)

val route : t -> Node.t -> Node.t list option
(** Same paths as {!Maintenance.route}, served through the next-hop
    cache. *)

val fail_link : t -> Node.t -> Node.t -> Maintenance.change_result
(** Like {!Maintenance.fail_link}.  Precondition, as for {!fail_node}:
    the engine is stabilized, so the destination is the only sink of
    its component.  Every operation here leaves it so, unless it raises
    [Failure] (a budget overrun), after which the session is unusable.
    @raise Invalid_argument if absent. *)

val add_link : t -> Node.t -> Node.t -> unit
(** @raise Invalid_argument if already present or a self-loop. *)

val fail_node : t -> Node.t -> Maintenance.change_result
(** Same precondition as {!fail_link}.
    @raise Invalid_argument for the destination. *)

val adopt_heights : t -> (Node.t -> int * int) -> Maintenance.change_result
(** [adopt_heights t f] overwrites every node's [(pa, pb)] height with
    [f u] — an arbitrary, possibly adversarial assignment — and
    self-heals through the ordinary sink worklist.  Any height
    assignment derives an acyclic orientation (heights are a total
    order), so the engine stabilizes from {e any} adopted state; this
    is the fault-injection entry point of the chaos harness.  Always
    returns [Stabilized] (the topology is untouched). *)

val set_observer : t -> (Node.t -> int array -> int -> unit) option -> unit
(** [set_observer t (Some f)] has the engine call [f u flipped len]
    after every reversal step: [u] is the node that stepped and
    [flipped.(0 .. len-1)] the neighbours whose edge to [u] reversed,
    in adjacency order.  The array is reused across steps — copy, don't
    retain.  Used by the chaos harness to record LRT1 traces of
    recoveries; [None] (the default) restores the silent hot path. *)

type cache_stats = { hits : int; misses : int; invalidations : int }

val cache_stats : t -> cache_stats
(** Next-hop cache counters since [create] or the last {!reroot}:
    [hits] cached hops taken, [misses] entries recomputed,
    [invalidations] entries discarded. *)

val consistent : t -> bool
(** Full invariant check: in-degrees match a recount; the membership
    bits and the component size match a fresh BFS from the
    destination; the destination's component holds no sink but the
    destination; no cached next hop is stale; and the destination's
    component is destination-oriented.  O(n + m): a recount over every
    row, two BFSs and a next-hop recomputation per cached entry.  Tests,
    storms and the chaos differentials call it; the serving path does
    not (a heal's recovery is checked by the tests). *)

val raise_height :
  Maintenance.rule -> Lr_fast.Fast_graph.Dyn.t -> int array -> int array -> Node.t -> unit
(** [raise_height rule adj ha hb u] is one reversal's height raise at
    [u] on flat [(pa, pb)] arrays: {!Maintenance.raise_height} over
    [u]'s neighbours in [adj], written into [ha.(u)] and [hb.(u)], in
    one pass over [u]'s row.  Under PR the pass keeps the least [pa],
    the least [pb] at it and the least [pb] one level above it: when
    the least [pa] drops by exactly one the old least level becomes the
    one above, and when it drops further nothing seen is above it.  The
    engine's own step and the {e lr_packet} forwarding plane's
    reversals share it.  [u] must have at least one neighbour. *)
