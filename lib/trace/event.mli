(** The `lr_trace` event vocabulary.

    A trace file is [header, event*, summary]: the header pins down the
    instance (embedded edge list, destination, engine, RNG seed, 64-bit
    graph fingerprint), each event is one scheduler decision of the
    recorded run, and the summary footer carries the run totals plus the
    fingerprint of the final orientation, so replay can verify a
    recording end to end without any side channel. *)

open Lr_graph

(** Which algorithm produced the trace.  [Pr] covers both the fast
    engine's Partial rule and the persistent PR/OneStepPR automata
    (they share list semantics); [Fr] is Full Reversal; [New_pr] is
    Algorithm 2 with its dummy steps; [Maint] is a maintenance-engine
    recovery (chaos harness) whose heights are not in the trace, so
    replay checks sink preconditions and acyclicity rather than exact
    PR list semantics. *)
type engine = Pr | Fr | New_pr | Maint

val engine_name : engine -> string
val engine_of_string : string -> engine option

val engine_tag : engine -> int
(** Stable wire tag. *)

val engine_of_tag : int -> engine option

type t =
  | Step of { node : int; slots : int array }
      (** [node] took a reversal step; [slots] lists the reversed edges
          as ascending indices into [node]'s sorted adjacency row (slot
          [i] is [node]'s [i]-th neighbour in ascending id order).
          Slots, not neighbour ids, keep events small: a slot index fits
          one varint byte for any degree below 128 regardless of [n]. *)
  | Dummy of int  (** NewPR dummy step: parity flip, nothing reversed. *)
  | Stale of int
      (** A scheduler decision that fired no step: the worklist
          yielded a node that is no longer a sink. *)
  | Perturb of { node : int; slots : int array }
      (** External fault injection (chaos harness): the listed incoming
          edges of [node] were forcibly flipped outward — not a
          protocol step, so it needs no sink precondition and does not
          count as work.  Slot encoding as in [Step].  Wire format
          version 2; absent from version-1 traces. *)

type header = {
  engine : engine;
  seed : int;  (** RNG seed the instance/schedule derives from; [-1] = unknown. *)
  n : int;  (** Node ids are [0 .. n-1]. *)
  destination : int;
  edges : (int * int) list;  (** Initial orientation, canonical edge order. *)
  fingerprint : int64;  (** {!Digraph.fingerprint} of the initial graph. *)
}

type summary = {
  work : int;  (** Total node steps, dummies included. *)
  edge_reversals : int;
  wall_ns : int;  (** Recording wall-clock, nanoseconds. *)
  final_fingerprint : int64;  (** Fingerprint of the final orientation. *)
}

val header_of_config : ?seed:int -> engine -> Linkrev.Config.t -> header
(** The header of a recording of [config].  The wire format addresses
    nodes as [0 .. n-1]; @raise Invalid_argument for any other id set
    (a trace of it could not be read back). *)

val instance_of_header : header -> Generators.instance
(** Rebuilds the embedded instance (including any isolated nodes). *)

val config_of_header : header -> (Linkrev.Config.t, string) result
(** {!instance_of_header} plus validation: node ids in range, embedded
    graph matches the header fingerprint, instance acyclic. *)

val pp : Format.formatter -> t -> unit
