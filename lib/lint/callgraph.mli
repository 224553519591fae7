(** Interprocedural call graph over the typed trees of dune units.

    Nodes are value bindings — toplevel [let]s (including inside nested
    modules and functor bodies), local function bindings (as children
    of their enclosing node), and synthetic nodes for function literals
    passed directly to a domain-crossing entry point.  An edge [a → b]
    means [a]'s body references an identifier resolving to [b],
    applied or not.  A value brought in by [include] resolves to the
    included module's binding, and [E.f] on a module unpacked from a
    first-class value resolves to [f] of every module packed at [E]'s
    module type — so a caller that picks its implementation at run
    time keeps edges to all of them.

    Alongside edges, each node carries the facts the domain-safety
    rules ({!Domain_safety}) consume: blocking-primitive call sites,
    raise sites, writes to non-atomic mutable state (deduplicated per
    target within a node; node-local allocations excluded), and
    [Atomic.t] access sites.

    Root nodes are where control crosses domains:
    - {!Resident} — closures handed to [Pool.Persistent.launch] or
      [Domain.spawn]: long-lived loop bodies whose blocking and
      escaping exceptions rules L6/L7 police.
    - {!Parallel} — closures handed to [Pool.map_range] /
      [run_trials], and functions that push/pop an SPSC ring (the
      values they exchange cross domains).

    Entry points are identified by declaration site (pool.ml/spsc.ml),
    never by path text, so aliases and [open] cannot hide them. *)

type root_kind = Parallel | Resident

type site = { prim : string; site_loc : Location.t }

type raise_site = {
  raise_prim : string;
  deliberate : bool;
      (** under a try body (caught locally) or inside an exception
          handler (an explicit re-raise): not an escape candidate *)
  raise_loc : Location.t;
}

type mutation = {
  target : string;  (** display name, e.g. ["busy field"] or ["total ref"] *)
  mut_key : string;  (** dedup key: field decl site or scoped ident *)
  mut_loc : Location.t;
}

type atomic_access = {
  atom : string;
  atom_key : string;
  atom_loc : Location.t;
}

type edge = {
  callee : int;  (** node id *)
  under_try : bool;  (** reference site sits inside a [try] body *)
}

type node = {
  id : int;
  name : string;  (** qualified, e.g. ["Lr_service.Service.run.drain_locked"] *)
  unit_name : string;
  file : string;  (** root-relative source path *)
  line : int;  (** binding start line *)
  mutable root : root_kind option;
  mutable edges : edge list;
  mutable blocking : site list;
  mutable raises : raise_site list;
  mutable mutations : mutation list;
  mutable atomics : atomic_access list;
}

type t = { nodes : node array }
(** [nodes.(i).id = i]. *)

val build : Cmt_unit.t list -> t
(** Two passes: register every unit's toplevel bindings (so
    cross-module references resolve regardless of scan order), then
    walk bodies.  Units without an implementation tree are skipped. *)

val size : t -> int
val edge_count : t -> int
val root_count : t -> int
