(* The sibling of Fix_surface: one direct call, one use each through a
   functor argument, a first-class pack and an include, and one of the
   two optional arguments passed. *)

module type PACK = sig
  val packed : int -> int
end

module Ints = Set.Make (Fix_surface)

module Extended = struct
  include Fix_surface.Inc
end

let pack : (module PACK) = (module Fix_surface)

let total =
  let module P = (val pack) in
  Fix_surface.called 1
  + P.packed 2
  + Extended.included 3
  + Ints.cardinal (Ints.singleton 4)
  + Fix_surface.knobs ~passed:5 6
