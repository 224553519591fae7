(* The writer half of the let-module fixture: [bump] writes a field of
   the counter it is handed, not toplevel state, so L2 stays quiet.
   Fix_alias_race's Pool closure reaches it only through a [let module]
   alias; test_lint asserts that L5 flags the write below. *)

type counter = { mutable hits : int }

let make () = { hits = 0 }
let bump c i = c.hits <- c.hits + i
