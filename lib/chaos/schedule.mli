(** Deterministic seeded fault-injection schedules.

    A schedule is a list of (time, fault) entries on a normalized
    [0, 1) timeline, generated from a tiny spec ([COUNT:SEED:MAG] on
    the command line) by a dedicated RNG stream — independent of the
    workload's, so adding chaos never perturbs which base ops are
    generated.  {!weave} merges the compiled fault ops into a base op
    stream through {!Lr_sim.Event_queue}: base op [i] fires at integer
    time [i+1], faults at their fractional times scaled to the same
    horizon, insertion order breaking ties.  The woven stream is a
    pure function of (spec, base ops, shard topologies), which is what
    lets the service's determinism fingerprints extend to chaos runs. *)

open Lr_service

type spec = { count : int; seed : int; magnitude : int }

val default_seed : int
val default_magnitude : int

val spec_of_string : string -> (spec, string) result
(** Parse ["COUNT[:SEED[:MAGNITUDE]]"] (e.g. ["8"], ["8:7"],
    ["8:7:1024"]).  Count and seed must be non-negative, magnitude
    in [1 .. Lr_service.Shard.max_magnitude]. *)

val spec_to_string : spec -> string

type entry = { at : float; fault : Fault.t }
(** [at] is in [0, 1) — the fraction of the run at which the fault
    lands (heals of scheduled partitions may reach up to [1.0)). *)

type t

val entries : t -> entry list
(** Ascending by [at]; ties keep generation order. *)

val generate : spec -> shards:int -> nodes:int -> t
(** The canonical schedule of [spec.count] faults over the given
    service shape.  Deterministic in the spec alone.  A scheduled
    partition contributes two entries (the cut and its later heal)
    deriving the same seeded edge set.
    @raise Invalid_argument on a non-positive service shape or a
    negative count. *)

val weave : t -> graphs:Lr_graph.Digraph.t array -> Op.t array -> Op.t array
(** Merge the schedule's compiled ops into the base op stream (see
    module doc).  The result is longer than the input by the total
    compiled fault-op count. *)
