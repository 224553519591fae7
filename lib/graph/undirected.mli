(** Undirected graph skeletons.

    The paper's system model fixes an undirected graph [G = (V, E)] that
    never changes while a link reversal algorithm runs; only the
    *orientation* of the edges evolves.  This module is that constant
    skeleton. *)

type t

val empty : t
val add_node : t -> Node.t -> t

val add_edge : t -> Node.t -> Node.t -> t
(** Adds both endpoints as nodes if absent.  Idempotent.
    @raise Invalid_argument on a self-loop. *)

val remove_edge : t -> Node.t -> Node.t -> t
(** Removes the edge if present; endpoints stay in the node set. *)

val of_edges : (Node.t * Node.t) list -> t
val nodes : t -> Node.Set.t
val edges : t -> Edge.Set.t
val num_nodes : t -> int
val num_edges : t -> int
val mem_node : t -> Node.t -> bool
val mem_edge : t -> Node.t -> Node.t -> bool

val neighbors : t -> Node.t -> Node.Set.t
(** [nbrs_u] of the paper; empty for unknown nodes. *)

val degree : t -> Node.t -> int

val rows : t -> int array array
(** [rows g] is the adjacency as flat rows: [(rows g).(u)] lists [u]'s
    neighbours in ascending id ([[||]] for an isolated node).  One fold
    over the adjacency map, in ascending id.  The rows are fresh, so a
    caller may keep or mutate them.
    @raise Invalid_argument unless the node ids are [0 .. n-1]. *)

val fold_edges : (Edge.t -> 'a -> 'a) -> t -> 'a -> 'a
val iter_edges : (Edge.t -> unit) -> t -> unit

val is_connected : t -> bool
(** True for the empty graph and singletons. *)

val component_of : t -> Node.t -> Node.Set.t
(** The connected component containing the node, by BFS from it
    ([{u}] for an unknown node). *)

val connected_components : t -> Node.Set.t list
val equal : t -> t -> bool
