(** Graphviz DOT export, for debugging and the examples. *)

val of_digraph :
  ?name:string ->
  ?highlight:Node.Set.t ->
  ?destination:Node.t ->
  Digraph.t ->
  string
(** DOT source for the oriented graph.  The destination (if given) is
    drawn as a double circle, highlighted nodes (e.g. current sinks) are
    filled. *)

val of_undirected : Undirected.t -> string

val to_file : string -> string -> unit
(** [to_file path dot_source] writes the source to [path]. *)
