(* Seeded L9 (unused surface) cases; Fix_surface_user is the sibling
   that uses some of them, and test_lint asserts the exact lines. *)

type t = int

val called : int -> int
val compare : t -> t -> int
val packed : int -> int

module Inc : sig
  val included : int -> int
end

module Sub : sig
  val forgotten : int -> int
end

val unused : int -> int
val tested : int -> int

val knobs :
  ?passed:int ->
  ?never:int ->
  int ->
  int
