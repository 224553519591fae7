(* The writer half of the let-module fixture; see test_lint.ml. *)

type counter

val make : unit -> counter
val bump : counter -> int -> unit
