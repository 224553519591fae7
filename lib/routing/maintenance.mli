(** TORA-style route maintenance on a dynamic topology.

    A maintenance session keeps a height-oriented graph
    destination-oriented while links fail and appear — the motivating
    use of Partial Reversal in mobile ad-hoc networks.  Link directions
    are always derived from node heights, so a new link is oriented
    "for free" (higher endpoint to lower), and a failure that leaves a
    node with no outgoing edge triggers a reversal cascade which the
    session runs to quiescence.

    Partition handling is deliberately simple (real TORA detects
    partitions with reflected heights): a failure that disconnects part
    of the network from the destination is detected by a connectivity
    check and reported; the disconnected side is left untouched.

    This is the one persistent height model: seeding from an embedding
    ({!initial_heights}), the raise ({!raise_height}) and the
    stabilizer ({!stabilize}) exist here once.  {!Failover} runs a
    session per surviving component, {!Height_protocol} seeds and
    raises through it, and {!Fast_maintenance} is the same model on
    flat arrays. *)

open Lr_graph
open Linkrev

type rule = Full_reversal | Partial_reversal

type t

type change_result =
  | Stabilized of { node_steps : int }
      (** Reversal work performed to restore destination orientation.
          Each step strictly raises the height of the node that
          reversed, so which nodes stepped shows in {!height_pair}. *)
  | Partitioned of Node.Set.t
      (** Nodes cut off from the destination; no reversals performed. *)

val initial_heights : rule -> Config.t -> Heights.pr_height Node.Map.t
(** Heights realizing [G'_init]: the node at embedding rank [r] gets
    [(0, -r)] under PR and [(n - r, 0)] under FR, with its id as the
    third component.  {!Fast_maintenance} seeds the same values on
    arrays. *)

val of_heights :
  rule -> Digraph.t -> destination:Node.t -> Heights.pr_height Node.Map.t -> t
(** A session on the graph with the given heights, not yet stabilized.
    The graph's orientation must be the one the heights induce (every
    edge from its higher endpoint to its lower one), and every node
    needs a height. *)

val create : rule -> Config.t -> t
(** {!of_heights} on [G'_init] with {!initial_heights}, then
    {!stabilize} (the initial graph need not be destination-oriented). *)

val stabilize : t -> change_result
(** Reverse inside the destination's component until no sink other
    than the destination remains there, always taking the minimum-id
    sink first.  Always returns [Stabilized].
    @raise Failure past [4 s^2 + 1000] steps on a component of [s]
    nodes, which suffices when the heights' spread is O(s) (see
    {!adoption_budget}). *)

val dest_component : t -> Node.Set.t
(** The destination's connected component in the current skeleton. *)

val graph : t -> Digraph.t

val rule : t -> rule
(** The reversal rule the session was created with. *)

val destination : t -> Node.t
val is_destination_oriented : t -> bool
val total_work : t -> int
(** Cumulative reversal steps since [create]. *)

val route : t -> Node.t -> Node.t list option
(** A directed path from the node to the destination, if the node is
    currently connected to it. *)

val raise_height : rule -> Heights.pr_height -> Heights.pr_height list -> Heights.pr_height
(** [raise_height rule h hs] is the height a sink at height [h] takes
    when it reverses, given its neighbours' heights [hs] (in any
    order): under PR, [pa] becomes one above the lowest neighbour's and
    [pb] one below the lowest [pb] among the neighbours at that new
    [pa] (unchanged when there are none); under FR, [pa] becomes one
    above the highest neighbour's and [pb] is 0.  The id component is
    kept; [h] itself is returned when [hs] is empty.  {!stabilize} and
    {!Height_protocol}'s asynchronous nodes reverse through it, and
    {!Fast_maintenance.raise_height} is the same arithmetic on flat
    arrays. *)

val compare_heights : t -> Node.t -> Node.t -> int
(** Order of the two nodes' current heights (positive when the first is
    higher).  Every link is directed from its higher endpoint to its
    lower one, so a correct route descends strictly in this order.
    @raise Not_found on unknown nodes. *)

val descends : t -> Node.t -> Node.t -> bool
(** [descends t u v] iff [{u,v}] is a link, the graph orients it
    [u -> v], and [u] is strictly higher than [v].  The orientation is
    stored beside the heights, so the two are checked independently —
    a route hop that passes both cannot close a loop, whichever of them
    an engine bug corrupted.  The serving layer validates every
    returned path with it. *)

val fail_link : t -> Node.t -> Node.t -> change_result
(** Remove a link.  @raise Invalid_argument if absent. *)

val add_link : t -> Node.t -> Node.t -> unit
(** Insert a link between existing nodes; it is oriented by the current
    heights.  @raise Invalid_argument if already present or a
    self-loop. *)

val fail_node : t -> Node.t -> change_result
(** Remove all links of a node (crash).  The node itself stays in the
    skeleton, isolated.  @raise Invalid_argument for the destination. *)

val adoption_budget : n:int -> spread:int -> int
(** [4 n (n + spread) + 1000], saturating at [max_int] — the
    stabilization step budget {!adopt_heights} runs under, where
    [spread] is the adopted assignment's {!height_spread}.  Work to
    converge from an arbitrary height assignment grows with the spread
    (each reversal raises the node's [pa] by at least one toward the
    assignment's ceiling), so the ordinary [4 n^2 + 1000] repair budget
    only covers assignments whose spread is O(n); this generalizes it.
    Positive and monotone in [spread] for every [n >= 0] and
    [spread >= 0]. *)

val height_spread : (int * int) Seq.t -> int
(** Total height range of an assignment given as its [(pa, pb)] pairs:
    [(max pa - min pa) + (max pb - min pb)], saturating at [max_int]
    (heights near [±2^61], as a flipped high bit leaves them, would
    otherwise wrap); [0] for no pairs.  Both engines' {!adopt_heights}
    and the chaos harness size {!adoption_budget} with it. *)

val adopt_heights : t -> (Node.t -> int * int) -> change_result
(** [adopt_heights t f] overwrites every node's [(pa, pb)] height with
    [f u] (the id component stays [u]), re-derives every edge's
    orientation and self-heals via the ordinary stabilization loop
    (under {!adoption_budget}).  Any height assignment orients
    acyclically, so this converges from arbitrary — including
    adversarial — state; it is the fault-injection entry point of the
    chaos harness.  Always returns [Stabilized]: the topology is
    untouched.  Mirrors {!Fast_maintenance.adopt_heights}
    byte-for-byte. *)

val height_pair : t -> Node.t -> int * int
(** The node's current [(pa, pb)] height (the third lexicographic
    component is the id itself) — comparable with
    {!Fast_maintenance.height} in differential checks.
    @raise Not_found on unknown nodes. *)
