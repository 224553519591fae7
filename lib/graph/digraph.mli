(** Oriented graphs: an undirected skeleton plus an orientation.

    This is the paper's [G' = (V, E')]: for every skeleton edge [{u,v}]
    exactly one of [(u,v)], [(v,u)] is present.  Link reversal
    algorithms only ever flip orientations, so the skeleton is shared
    and immutable.  All updates are persistent. *)

type t

type direction = In | Out
(** Direction of an edge from one endpoint's perspective: [dir g u v =
    Out] means the edge is directed [u -> v] (the paper's
    [dir\[u,v\] = out]). *)

val flip : direction -> direction

val direction_equal : direction -> direction -> bool
(** Monomorphic equality, for hot paths where polymorphic [=] is
    banned (see the L1 lint rule). *)

(** {1 Construction} *)

val orient : Undirected.t -> toward:(Edge.t -> Node.t) -> t
(** [orient skel ~toward] orients every skeleton edge [e] toward node
    [toward e] (which must be an endpoint of [e]).
    @raise Invalid_argument if [toward e] is not an endpoint. *)

val of_directed_edges : (Node.t * Node.t) list -> t
(** [of_directed_edges [(u1,v1); ...]] builds the skeleton and directs
    each edge [ui -> vi].  Later pairs overwrite earlier orientations of
    the same edge. *)

val add_directed_edge : t -> Node.t -> Node.t -> t
(** [add_directed_edge g u v] adds (or reorients) edge [{u,v}] as
    [u -> v], extending the skeleton if needed. *)

val remove_edge : t -> Node.t -> Node.t -> t

val isolate : t -> Node.t -> t
(** [isolate g u] removes every edge at [u] — a crash.  The node itself
    stays in the skeleton with degree 0. *)

val add_node : t -> Node.t -> t

(** {1 Observation} *)

val skeleton : t -> Undirected.t
val nodes : t -> Node.Set.t
val num_nodes : t -> int
val num_edges : t -> int
val mem_edge : t -> Node.t -> Node.t -> bool
val neighbors : t -> Node.t -> Node.Set.t

val dir : t -> Node.t -> Node.t -> direction
(** @raise Invalid_argument if [{u,v}] is not a skeleton edge. *)

val edge_target : t -> Edge.t -> Node.t
(** The endpoint the edge points to. *)

val in_neighbors : t -> Node.t -> Node.Set.t
val out_neighbors : t -> Node.t -> Node.Set.t
val in_degree : t -> Node.t -> int
val out_degree : t -> Node.t -> int

val is_sink : t -> Node.t -> bool
(** All incident edges incoming and degree > 0?  Isolated nodes are not
    sinks (they can never enable a reversal). *)

val is_source : t -> Node.t -> bool
val sinks : t -> Node.Set.t
val sources : t -> Node.Set.t

val directed_edges : t -> (Node.t * Node.t) list
(** Each edge as [(from, to)], sorted by normalized edge. *)

(** {1 Reversal} *)

val set_dir : t -> Node.t -> Node.t -> direction -> t
(** [set_dir g u v Out] directs the existing edge [{u,v}] as [u -> v].
    @raise Invalid_argument if [{u,v}] is not a skeleton edge. *)

val reverse_edge : t -> Node.t -> Node.t -> t
(** Flip the orientation of the existing edge [{u,v}]. *)

val reverse_all_at : t -> Node.t -> t
(** Make every edge incident to [u] outgoing from [u]. *)

val reverse_toward : t -> Node.t -> Node.Set.t -> t
(** [reverse_toward g u ws] directs the edge [{u,w}] as [u -> w] for
    every [w] in [ws] (each must be a neighbor of [u]). *)

(** {1 Global properties} *)

val is_acyclic : t -> bool
val topological_sort : t -> Node.t list option
(** Sources first; [None] when cyclic. *)

val find_cycle : t -> Node.t list option
(** A directed cycle [v1; ...; vk] (with the edge [vk -> v1]), if any. *)

val reaches : t -> Node.t -> Node.Set.t
(** [reaches g d] is the set of nodes having a directed path to [d]
    (including [d] itself). *)

val has_path : t -> Node.t -> Node.t -> bool

val is_destination_oriented : t -> Node.t -> bool
(** Every node has a directed path to the destination. *)

val bad_nodes : t -> Node.t -> Node.Set.t
(** Nodes with no directed path to the destination — the paper's
    [n_b] count is the cardinality of this set. *)

(** {1 Equality and keys} *)

val equal : t -> t -> bool

val canonical_key : t -> string
(** Deterministic key usable for hashing states in a model checker:
    equal graphs (same skeleton, same orientation) yield equal keys. *)

val fingerprint : t -> int64
(** 64-bit FNV-1a digest of the graph — node ids, skeleton edges and
    orientation bits in canonical order.  Equal graphs yield equal
    fingerprints; unequal graphs collide with probability ~2⁻⁶⁴.  The
    trace subsystem stores it in headers/footers to bind a recorded
    execution to its instance and final orientation;
    [Lr_fast.Fast_graph.fingerprint] computes the identical value from
    the flat-array representation. *)

val orientation_bits : t -> int array
(** The orientation packed into a bitset, one bit per skeleton edge in
    canonical (sorted) edge order, prefixed by the edge count.  Among
    graphs sharing one skeleton — the only situation a link reversal
    state space ever compares — equal bit arrays iff equal graphs.
    A few machine words instead of a [canonical_key] string; the basis
    of the model checker's hashed frontier keys. *)

val pp : Format.formatter -> t -> unit
