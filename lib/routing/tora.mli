(** TORA-style route maintenance (Park & Corson, INFOCOM '97) — the
    best-known deployment of partial link reversal, built here as the
    capstone application of the library.

    Each routed node holds a five-component height
    [(tau, oid, r, delta, id)]: a {e reference level} [(tau, oid, r)]
    created in response to a link failure, plus an ordering pair
    [(delta, id)].  Links point from the lexicographically higher
    endpoint to the lower; nodes with no height ([Null]) leave their
    links unusable.  A node that loses its last downstream link reacts
    with the protocol's five cases:

    - {b generate} (case 1): the loss came from a link failure — start a
      new reference level [(now, self, 0)];
    - {b propagate} (case 2): neighbours carry different reference
      levels — adopt the highest, with [delta] below its minimum;
    - {b reflect} (case 3): all neighbours share an unreflected level —
      reflect it back ([r := 1]);
    - {b detect} (case 4): a node's own reflected level has returned
      from every neighbour — the component is partitioned from the
      destination; heights in it are cleared;
    - {b generate} (case 5): someone else's reflected level surrounds a
      node that lost a link — start a fresh level.

    Simplifications versus the wire protocol (documented in DESIGN.md):
    reactions are executed as atomic steps on globally visible heights
    (the same model the paper uses for PR), and route creation is the
    result of a completed QRY/UPD flood rather than the flood itself. *)

open Lr_graph

type ref_level = { tau : int; oid : Node.t; reflected : bool }

type height =
  | Null
  | Height of { level : ref_level; delta : int; id : Node.t }

val compare_height : height -> height -> int
(** Lexicographic on [(tau, oid, reflected, delta, id)]; [Null] is
    incomparable in the protocol but ordered last here for totality. *)

val pp_height : Format.formatter -> height -> unit

type t

type event_result =
  | Maintained of { reactions : int }
      (** Routes restored; [reactions] nodes executed a maintenance
          case. *)
  | Partition_detected of { cleared : Node.Set.t; reactions : int }
      (** Case 4 fired: the given nodes lost their heights. *)

val create : Linkrev.Config.t -> t
(** Heights from a completed route-creation flood: [delta] = hop
    distance to the destination, zero reference levels.  Nodes with no
    path in the skeleton start [Null]. *)

val destination : t -> Node.t
val height : t -> Node.t -> height
val skeleton : t -> Undirected.t

val route : t -> Node.t -> Node.t list option
(** Greedy steepest-descent route to the destination. *)

val has_route : t -> Node.t -> bool
val routed_fraction : t -> float
(** Fraction of non-destination nodes with a route. *)

val fail_link : t -> Node.t -> Node.t -> event_result
(** @raise Invalid_argument if the link is absent. *)

val add_link : t -> Node.t -> Node.t -> event_result
(** New links orient by current heights; a [Null] endpoint adjacent to a
    routed one receives a height (joins the DAG downstream). *)

val acyclic : t -> bool
(** No directed cycle among routed nodes — TORA's safety property. *)

val reactions_total : t -> int
(** Cumulative maintenance reactions since [create]. *)
