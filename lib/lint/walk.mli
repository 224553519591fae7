(** Typed-tree fact extraction for the lint rules.

    Identifiers are classified by their {e resolved} [Path.t] (stdlib
    values always resolve through the [Stdlib] unit) and, for Pool entry
    points, by declaration site, so neither shadowing nor module aliases
    change what fires. *)

(** An application of a polymorphic structural operation ([=],
    [compare], [Hashtbl.hash], [List.mem], ...).  [exempt] is true when
    the first argument's type expands to an immediate/primitive type
    (or a tuple thereof), where the polymorphic version is safe. *)
type poly_app = {
  op : string;
  arg_type : string;
  exempt : bool;
  app_loc : Location.t;
}

type forbidden = { construct : string; forbid_loc : Location.t }

(** A toplevel [let] (possibly inside a nested module) whose type is a
    mutable container or a record with mutable fields. *)
type mutable_binding = {
  binding : string;  (** dotted path within the unit, e.g. ["Shard.queue"] *)
  kind : string;
  bind_loc : Location.t;
}

(** An application of [Pool.map_range] / [Pool.run_trials].
    [captured_units] are compilation-unit name candidates referenced
    anywhere in the argument subtree. *)
type pool_use = {
  entry : string;
  use_loc : Location.t;
  captured_units : string list;
}

type facts = {
  poly_apps : poly_app list;
  forbiddens : forbidden list;
  mutables : mutable_binding list;
  pool_uses : pool_use list;
}

val flatten_dunder : string -> string
(** Rewrites dune's [Lib__Module] mangling to dotted [Lib.Module]. *)

val strip_stdlib : string -> string
(** Drops a leading ["Stdlib."] prefix, if any. *)

type env_resolver = Env.t -> Env.t
(** Rebuilds a usable typing environment from a cmt summary env
    (e.g. [Envaux.env_of_only_summary]); may be the identity when
    resolution is unavailable, in which case type expansion degrades
    gracefully. *)

val of_structure : env_resolver -> Typedtree.structure -> facts
