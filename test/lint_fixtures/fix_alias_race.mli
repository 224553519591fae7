(* Exports nothing: the Pool closure inside is the fixture. *)
