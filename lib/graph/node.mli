(** Node identifiers.

    Nodes are plain integers; all graph structures in [lr_graph] are
    parameterized by this module's sets and maps so that the rest of the
    code never depends on the concrete representation. *)

type t = int

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Set : sig
  include Set.S with type elt = t

  val pp : Format.formatter -> t -> unit
end

module Map : sig
  include Map.S with type key = t

  val pp : (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a t -> unit

  val find_or : default:'a -> key -> 'a t -> 'a
  (** [find_or ~default k m] is [find k m] or [default] when unbound. *)
end
