(** Normalized undirected edges.

    An edge [{u, v}] is stored as the ordered pair [(min u v, max u v)],
    so that structural equality coincides with set equality of the
    endpoints.  Self-loops are rejected: link reversal graphs never
    contain them. *)

type t = private Node.t * Node.t

val make : Node.t -> Node.t -> t
(** [make u v] is the normalized edge [{u, v}].
    @raise Invalid_argument if [u = v]. *)

val endpoints : t -> Node.t * Node.t
(** [(lo, hi)] with [lo < hi]. *)

val lo : t -> Node.t
val hi : t -> Node.t

val other : t -> Node.t -> Node.t
(** [other e u] is the endpoint of [e] distinct from [u].
    @raise Invalid_argument if [u] is not an endpoint of [e]. *)

val incident : t -> Node.t -> bool
val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

module Set : Set.S with type elt = t

module Map : sig
  include Map.S with type key = t
end
