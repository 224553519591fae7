(* Seeded L7 violations behind first-class modules; see test_lint.ml. *)

val spin : Lr_parallel.Pool.Persistent.t -> unit
