(** Shared flat-array view of an instance, the common substrate of the
    mutable engine ({!Fast_engine}), the trace replay cursor
    ([Lr_trace.Replay]) and the fast maintenance engine.

    Adjacency as int arrays, plus for every slot [(u, i)] the {e mirror}
    slot: the index of [u] inside the adjacency row of its [i]-th
    neighbour, so an edge flip updates both endpoints in O(1) without
    any search.  [out0] is the initial orientation — engines copy it
    and mutate the copy, so one [Fast_graph.t] can seed many runs. *)

open Lr_graph

type t = private {
  n : int;
  destination : int;
  nbrs : int array array;  (** [nbrs.(u)] = neighbour ids, ascending. *)
  mirror : int array array;
      (** [mirror.(u).(i)] = index of [u] inside [nbrs.(w)] where
          [w = nbrs.(u).(i)]. *)
  out0 : bool array array;
      (** Initial orientation: [out0.(u).(i)] iff the edge to
          [nbrs.(u).(i)] starts outgoing at [u].  Do not mutate. *)
}

val of_instance : Generators.instance -> t
(** {!of_rows} over {!Lr_graph.Undirected.rows} of the instance's
    skeleton.  Node ids must be [0 .. n-1]; @raise Invalid_argument
    otherwise (use {!Lr_graph.Generators} outputs, which satisfy
    this). *)

val of_config : Linkrev.Config.t -> t

val of_rows : destination:int -> out:(int -> int -> bool) -> int array array -> t
(** The direct edge-array constructor, with no persistent graph in
    between: [of_rows ~destination ~out rows] takes [rows.(u)] as [u]'s
    neighbour ids, strictly ascending, with every edge present in both
    endpoints' rows; [out u w] gives the initial orientation of the edge
    [{u, w}] as seen from [u] (so [out w u = not (out u w)]).  The rows
    are kept, not copied.  O(sum of degrees).  {!of_instance} is this
    constructor applied to a [Digraph]'s sorted neighbour sets.
    @raise Invalid_argument if a row is unsorted, holds a self-loop or
    an out-of-range id, or the rows are not symmetric. *)

val degree : t -> int -> int

val fingerprint : t -> bool array array -> int64
(** [fingerprint t out_] is the 64-bit digest of the orientation [out_]
    over this skeleton — bit-identical to {!Lr_graph.Digraph.fingerprint}
    of the corresponding oriented graph.  Used by trace headers/footers
    to bind a recording to its instance and final orientation without
    materializing a [Digraph]. *)

val initial_out : t -> bool array array
(** A fresh mutable copy of [out0]. *)

val initial_in_degree : t -> int array
(** Per-node initial in-degree, computed from [out0]. *)

val initial_slots : t -> bool -> int array array
(** [initial_slots t out] lists, per node and ascending, the slots whose
    initial orientation [out0] is [out]: [false] gives the initially
    incoming edges (NewPR's even reversal set), [true] the initially
    outgoing ones (its odd set). *)

val to_digraph : t -> bool array array -> Digraph.t
(** [to_digraph t out_] is the orientation [out_] over this skeleton as
    a persistent graph (small instances: differential tests, audits). *)

(** A {e dynamic} flat adjacency: the same rows-plus-mirror-slots
    representation, but mutable under edge insertion and removal, for
    engines that must survive topology churn ({!Lr_routing}'s fast
    maintenance engine).  Removal swap-deletes within a row and fixes
    the moved entry's mirror, so both operations are O(degree) with no
    allocation in the steady state.  Rows lose their sorted order after
    the first removal — callers must not rely on it until
    {!sort_rows} restores it. *)
module Dyn : sig
  type graph := t
  type t

  val of_graph : graph -> t
  (** A fresh mutable copy of the adjacency (the source is unchanged):
      {!of_rows} over copies of its rows. *)

  val of_rows : int array array -> t
  (** [of_rows rows] adopts [rows] (sorted and symmetric, as
      {!Fast_graph.of_rows} takes them) as the adjacency, without a
      copy: the dynamic graph owns and mutates them from then on.  It
      runs the same mirror and validation pass as {!Fast_graph.of_rows}
      and builds no initial orientation, so it is the cheap entry point
      for an engine that derives its orientation itself.  O(sum of
      degrees).
      @raise Invalid_argument as {!Fast_graph.of_rows} does. *)

  val num_nodes : t -> int
  val degree : t -> int -> int

  val row : t -> int -> int array
  (** [row t u] is [u]'s adjacency row itself, not a copy: its first
      [degree t u] entries are [u]'s neighbours, in adjacency order, and
      the entries past them are spare capacity.  A neighbour loop fetches
      it once and reads it directly.  Read it only: a later {!add_edge}
      may replace the row, and a removal reorders it. *)

  val mem_edge : t -> int -> int -> bool
  (** Linear in [degree u]; false for out-of-range ids. *)

  val add_edge : t -> int -> int -> unit
  (** @raise Invalid_argument on a self-loop.  The edge must be absent
      (callers check; a duplicate would corrupt the mirror slots). *)

  val remove_edge : t -> int -> int -> unit
  (** @raise Invalid_argument if the edge is absent. *)

  val isolate : t -> int -> unit
  (** [isolate t u] removes every edge of [u], in O(degree u) with no
      allocation. *)

  val sort_rows : t -> scratch:int array -> unit
  (** Puts every row back in ascending order and recomputes the mirror
      slots, in place, so the adjacency order is again the one {!of_rows}
      gives the same edge set's sorted rows.
      O(n + sum of degrees), with no allocation.  [scratch] must hold
      at least [num_nodes t] ints; its contents are overwritten. *)
end
