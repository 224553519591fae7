(* Exports nothing: only its uses of Fix_surface matter. *)
