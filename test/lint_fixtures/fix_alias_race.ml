(* The caller half of the let-module fixture: [M.bump] is the only path
   from the Pool closure to Fix_alias_sink's write, so L5 sees the race
   only if the call graph resolves the alias. *)

let race n =
  let module M = Fix_alias_sink in
  let c = M.make () in
  Lr_parallel.Pool.map_range ~jobs:2 n (fun i ->
      M.bump c i;
      i)
