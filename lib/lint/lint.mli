(** The lint driver: loads dune-produced [.cmt] typed trees and checks
    the rules ({!Rule.t}) over the configured source dirs.

    The intraprocedural rules (L1–L4) scan and report on [dirs]
    (default [lib]) only.  [capture_dirs] (default [bin], [bench])
    feed the interprocedural domain-safety rules (L5–L8,
    {!Domain_safety}) alone, which report over [dirs] {e and}
    [capture_dirs]: a race seeded from a CLI driver is just as much a
    race.  L9
    ({!Surface}) reports on the interfaces under [dirs] and counts uses
    from every unit under the build dir. *)

type config = {
  root : string;  (** repo root (where [lib/] lives) *)
  build_dir : string;  (** dune context root, usually [_build/default] *)
  dirs : string list;
  capture_dirs : string list;
  rules : Rule.t list;  (** rules to run *)
  allow : Allowlist.t;
}

val default_config : root:string -> config

type safety = {
  stats : Domain_safety.stats;
  timings : (Rule.t * float) list;
      (** wall seconds per enabled safety rule, in L5..L8 order *)
  analyse_seconds : float;
      (** call-graph construction + reachability sets *)
}

type report = {
  diagnostics : Diagnostic.t list;
  units : int;
  safety : safety option;  (** present when any of L5–L8 ran *)
  surface : Surface.t option;  (** present when L9 ran *)
}

val run : config -> (report, string) result
(** [Error _] only for environmental failures: no cmts found, or, with
    L9 on, a caller directory ([lib], [bin], [bench], [benchmark],
    [examples], [test]) without any; findings are data, not errors. *)

val callgraph_analysis : config -> (Domain_safety.t, string) result
(** Build the call graph over [dirs @ capture_dirs] and analyse it,
    without running any rules — backs [linkrev callgraph --dot]. *)

val count : Diagnostic.severity -> Diagnostic.t list -> int
val summary : units:int -> suppressed:int -> Diagnostic.t list -> string

val report_json :
  units:int ->
  suppressed:int ->
  safety:safety option ->
  surface:Surface.t option ->
  Diagnostic.t list ->
  Json.t
(** With L9's counts and the exports only [test/] uses under
    ["unused_surface"]. *)
