(** Loading dune-produced [.cmt] typed trees via compiler-libs. *)

type t = {
  cmt_path : string;
  modname : string;  (** wrapped unit name, e.g. ["Lr_automata__Automaton"] *)
  pretty : string;  (** dotted form, e.g. ["Lr_automata.Automaton"] *)
  source : string option;  (** repo-relative, e.g. ["lib/automata/automaton.ml"] *)
  structure : Typedtree.structure option;
      (** [Some] for implementation cmts *)
}

val load_tree : string -> t list * string list
(** [load_tree build_dir] recursively loads every [.cmt] under
    [build_dir] (deduplicated, sorted by path) and also returns every
    directory containing [.cmi] files, for [Load_path]. *)

val in_dirs : string list -> t -> bool
(** Does the unit's source live under one of these repo-relative
    directories? *)
